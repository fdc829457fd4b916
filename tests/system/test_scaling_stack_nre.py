"""Tests for scaling trends, the 3-D stack and the NRE model."""

import pytest

from repro.system.blocks import STANDARD_BLOCKS, block_by_name
from repro.system.nre import (
    design_cost_usd,
    mask_set_cost_usd,
    nre_cost_usd,
    platform_vs_custom_crossover,
)
from repro.system.scaling import (
    best_node_for_block,
    homogeneous_vs_heterogeneous,
    scaled_area_mm2,
)
from repro.system.stack3d import (
    StackLayer,
    ThreeDStack,
    guiducci_stack,
    tsv_parasitic_capacitance_ff,
)


class TestScaling:
    def test_digital_shrinks_quadratically(self):
        control = block_by_name("control mcu + dsp")
        at_180 = scaled_area_mm2(control, 180.0)
        at_90 = scaled_area_mm2(control, 90.0)
        assert at_90 == pytest.approx(at_180 / 4.0)

    def test_sensor_never_shrinks(self):
        sensor = block_by_name("cnt electrode array")
        assert scaled_area_mm2(sensor, 40.0) \
            == pytest.approx(scaled_area_mm2(sensor, 350.0))

    def test_analog_shrinks_slower_than_digital(self):
        afe = block_by_name("potentiostat + tia front-end")
        control = block_by_name("control mcu + dsp")
        afe_gain = scaled_area_mm2(afe, 180.0) / scaled_area_mm2(afe, 90.0)
        dig_gain = (scaled_area_mm2(control, 180.0)
                    / scaled_area_mm2(control, 90.0))
        assert dig_gain > afe_gain

    def test_digital_prefers_advanced_nodes(self):
        control = block_by_name("control mcu + dsp")
        assert best_node_for_block(control) <= 90.0

    def test_sensor_prefers_mature_nodes(self):
        sensor = block_by_name("cnt electrode array")
        assert best_node_for_block(sensor) == 350.0

    def test_heterogeneous_wins(self):
        """The paper's section 1 claim: heterogeneous technologies beat a
        single-node SoC for biosensing systems."""
        comparison = homogeneous_vs_heterogeneous(STANDARD_BLOCKS)
        assert comparison["saving_ratio"] > 1.0


class TestThreeDStack:
    def test_guiducci_stack_feasible(self):
        assert guiducci_stack().is_feasible()

    def test_disposable_biolayer_on_top(self):
        stack = guiducci_stack()
        disposables = stack.disposable_layers()
        assert len(disposables) == 1
        assert disposables[0].name == "disposable biolayer"

    def test_permanent_layers_carry_electronics(self):
        stack = guiducci_stack()
        names = {layer.name for layer in stack.layers
                 if not layer.disposable}
        assert "analog readout tier" in names
        assert "rf tier" in names

    def test_replacement_fraction_below_half(self):
        # The point of the split: most area persists across uses.
        assert guiducci_stack().replacement_cost_fraction() < 0.5

    def test_thickness_sums_layers_and_bonds(self):
        stack = guiducci_stack()
        dies = sum(layer.thickness_um for layer in stack.layers)
        assert stack.total_thickness_um(bond_um=10.0) \
            == pytest.approx(dies + 30.0)

    def test_tsv_budget_counts_signals(self):
        stack = guiducci_stack()
        assert stack.total_tsvs() == 40

    def test_infeasible_when_tsvs_explode(self):
        sensor = block_by_name("cnt electrode array")
        afe = block_by_name("potentiostat + tia front-end")
        layers = (
            StackLayer("bio", (sensor,), 350.0, disposable=True,
                       signals_down=100_000),
            StackLayer("readout", (afe,), 180.0),
        )
        stack = ThreeDStack(layers=layers, tsv_pitch_um=100.0,
                            tsv_diameter_um=20.0)
        assert not stack.is_feasible()

    def test_needs_two_layers(self):
        sensor = block_by_name("cnt electrode array")
        with pytest.raises(ValueError, match="two layers"):
            ThreeDStack(layers=(StackLayer("solo", (sensor,), 350.0),))

    def test_tsv_capacitance_tens_of_ff(self):
        assert 5.0 < tsv_parasitic_capacitance_ff() < 200.0


class TestNre:
    def test_mask_costs_rise_with_node(self):
        assert mask_set_cost_usd(40.0) > mask_set_cost_usd(180.0)

    def test_reuse_discount_cuts_design_cost(self):
        kinds = ["adc", "analog front-end"]
        full = design_cost_usd(kinds, reuse_discount=0.0)
        reused = design_cost_usd(kinds, reuse_discount=0.7)
        assert reused == pytest.approx(0.3 * full)

    def test_nre_sums_design_and_masks(self):
        kinds = ["adc"]
        assert nre_cost_usd(kinds, 180.0) == pytest.approx(
            design_cost_usd(kinds) + mask_set_cost_usd(180.0))

    def test_platform_crossover_small(self):
        """The paper's NRE argument: a platform pays off after a handful
        of derivative products."""
        kinds = [b.kind.value for b in STANDARD_BLOCKS]
        result = platform_vs_custom_crossover(kinds, 180.0)
        assert 2 <= result["crossover_products"] <= 10

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError, match="available"):
            mask_set_cost_usd(28.0)

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="available"):
            design_cost_usd(["flux capacitor"])
