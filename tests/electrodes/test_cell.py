"""Tests for repro.electrodes.cell, spe and microchip."""

import pytest

from repro.electrodes.cell import (
    AG_AGCL,
    AG_PSEUDO,
    PT_PSEUDO,
    ReferenceElectrode,
    ThreeElectrodeCell,
)
from repro.electrodes.geometry import ElectrodeGeometry
from repro.electrodes.materials import GOLD, GRAPHITE
from repro.electrodes.microchip import (
    MICROCHIP_WORKING_AREA_M2,
    MicrofabricatedChip,
)
from repro.electrodes.spe import SPE_WORKING_AREA_M2, screen_printed_electrode


class TestReferences:
    def test_pseudo_references_less_stable(self):
        assert AG_PSEUDO.stability_mv > AG_AGCL.stability_mv
        assert PT_PSEUDO.stability_mv > AG_AGCL.stability_mv

    def test_rejects_negative_stability(self):
        with pytest.raises(ValueError):
            ReferenceElectrode("bad", 0.2, stability_mv=-1.0)


class TestCell:
    def make_cell(self) -> ThreeElectrodeCell:
        geometry = ElectrodeGeometry.from_area(1e-6)
        return ThreeElectrodeCell(
            name="test cell",
            working_geometry=geometry,
            working_material=GOLD,
            counter_material=GOLD,
            counter_area_m2=2e-6,
        )

    def test_working_area_from_geometry(self):
        assert self.make_cell().working_area_m2 == pytest.approx(1e-6)

    def test_bare_double_layer_includes_roughness(self):
        cell = self.make_cell()
        expected = GOLD.specific_capacitance_f_m2 * GOLD.roughness
        assert cell.bare_double_layer().capacitance_per_area \
            == pytest.approx(expected)


class TestScreenPrintedElectrode:
    def test_paper_area(self):
        # "Working electrode has an area equal to 13 mm^2."
        assert SPE_WORKING_AREA_M2 == pytest.approx(1.3e-5)
        cell = screen_printed_electrode()
        assert cell.working_area_m2 == pytest.approx(1.3e-5)

    def test_graphite_working_electrode(self):
        assert screen_printed_electrode().working_material is GRAPHITE

    def test_silver_pseudo_reference(self):
        assert screen_printed_electrode().reference is AG_PSEUDO

    def test_rejects_bad_area(self):
        with pytest.raises(ValueError):
            screen_printed_electrode(working_area_m2=0.0)


class TestMicrochip:
    def test_paper_dimensions(self):
        # "five Au microelectrodes ... area equal to 0.25 mm^2".
        chip = MicrofabricatedChip()
        assert chip.n_channels == 5
        assert MICROCHIP_WORKING_AREA_M2 == pytest.approx(2.5e-7)

    def test_channel_cells_share_reference(self):
        chip = MicrofabricatedChip()
        cells = [chip.channel_cell(i) for i in range(chip.n_channels)]
        assert len(cells) == 5
        assert all(cell.reference is PT_PSEUDO for cell in cells)

    def test_gold_working_electrodes(self):
        cell = MicrofabricatedChip().channel_cell(2)
        assert cell.working_material is GOLD

    def test_rejects_out_of_range_channel(self):
        with pytest.raises(ValueError):
            MicrofabricatedChip().channel_cell(5)

    def test_total_sensing_area(self):
        chip = MicrofabricatedChip()
        assert chip.total_sensing_area_m2 == pytest.approx(5 * 2.5e-7)

    def test_small_sample_volume(self):
        # Miniaturization claim: microliter-scale samples suffice.
        volume_l = MicrofabricatedChip().sample_volume_estimate_l()
        assert volume_l < 100e-6

    def test_smaller_than_spe(self):
        chip_cell = MicrofabricatedChip().channel_cell(0)
        spe = screen_printed_electrode()
        assert chip_cell.working_area_m2 < spe.working_area_m2 / 10
