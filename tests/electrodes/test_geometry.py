"""Tests for repro.electrodes.geometry."""

import math

import pytest

from repro.electrodes.geometry import ElectrodeGeometry


class TestConstruction:
    def test_disk_area(self):
        disk = ElectrodeGeometry.disk(2e-3)
        assert disk.area_m2 == pytest.approx(math.pi * 1e-6)

    def test_from_area_roundtrip(self):
        geometry = ElectrodeGeometry.from_area(2.5e-7)
        assert geometry.area_m2 == pytest.approx(2.5e-7, rel=1e-9)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ElectrodeGeometry("triangle", 1e-6, 1e-3)

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            ElectrodeGeometry.disk(0.0)


class TestMicroelectrodeRegime:
    def test_paper_microchip_electrode_is_not_ultramicro(self):
        # 0.25 mm^2 -> radius ~282 um, far above the ~25 um below which
        # diffusion turns radial: macro-regime diffusion.
        chip_electrode = ElectrodeGeometry.from_area(2.5e-7)
        assert chip_electrode.characteristic_length_m > 25e-6

    def test_characteristic_length_of_disk_is_radius(self):
        disk = ElectrodeGeometry.disk(20e-6)
        assert disk.characteristic_length_m == pytest.approx(10e-6)


class TestMiniaturizationClaim:
    """Paper section 1: miniaturization increases sensor response speed."""

    def test_smaller_electrode_settles_faster(self):
        small = ElectrodeGeometry.from_area(2.5e-7)   # chip electrode
        large = ElectrodeGeometry.from_area(1.3e-5)   # SPE
        assert small.steady_state_time_s() < large.steady_state_time_s()

    def test_settling_scales_with_area(self):
        a1 = ElectrodeGeometry.from_area(1e-6)
        a4 = ElectrodeGeometry.from_area(4e-6)
        assert a4.steady_state_time_s() == pytest.approx(
            4 * a1.steady_state_time_s(), rel=1e-9)

    def test_rejects_bad_diffusion(self):
        with pytest.raises(ValueError):
            ElectrodeGeometry.disk(1e-3).steady_state_time_s(0.0)
