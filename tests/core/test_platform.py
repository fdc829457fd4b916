"""Tests for repro.core.platform (multi-target chip)."""

import numpy as np
import pytest

from repro.core.platform import (
    MultiTargetPlatform,
    reference_metabolite_platform,
)
from repro.core.registry import spec_by_id
from repro.units import molar_from_millimolar


@pytest.fixture(scope="module")
def calibrated_platform():
    platform = reference_metabolite_platform()
    uppers = {0: molar_from_millimolar(1.0),
              1: molar_from_millimolar(1.0),
              2: molar_from_millimolar(2.0)}
    platform.calibrate_batch(seed=21, upper_molar_by_channel=uppers)
    return platform


class TestConstruction:
    def test_reference_platform_channels(self):
        platform = reference_metabolite_platform()
        assert platform.analytes == {0: "glucose", 1: "lactate",
                                     2: "glutamate"}

    def test_rejects_duplicate_channel(self):
        platform = reference_metabolite_platform()
        from repro.core.registry import build_sensor
        with pytest.raises(ValueError, match="already hosts"):
            platform.add_channel(0, build_sensor(spec_by_id("glucose/this-work")))

    def test_rejects_off_chip_channel(self):
        platform = MultiTargetPlatform()
        from repro.core.registry import build_sensor
        with pytest.raises(ValueError, match="channel"):
            platform.add_channel(7, build_sensor(spec_by_id("glucose/this-work")))

    def test_too_many_specs_rejected(self):
        specs = [spec_by_id("glucose/this-work")] * 6
        with pytest.raises(ValueError, match="channels"):
            MultiTargetPlatform.from_specs(specs)


class TestCalibration:
    def test_calibrates_every_channel(self, calibrated_platform):
        assert set(calibrated_platform.calibrations) == {0, 1, 2}

    def test_channel_sensitivities_match_paper(self, calibrated_platform):
        sensitivities = {
            ch: result.sensitivity_paper
            for ch, result in calibrated_platform.calibrations.items()}
        assert sensitivities[0] == pytest.approx(55.5, rel=0.1)   # glucose
        assert sensitivities[1] == pytest.approx(25.0, rel=0.1)   # lactate
        assert sensitivities[2] == pytest.approx(0.9, rel=0.15)   # glutamate


class TestSampleMeasurement:
    def test_recovers_known_sample(self, calibrated_platform):
        truth = {"glucose": 0.5e-3, "lactate": 0.4e-3, "glutamate": 0.8e-3}
        estimates = calibrated_platform.measure_sample(
            truth, np.random.default_rng(4))
        for analyte, true_level in truth.items():
            assert estimates[analyte] == pytest.approx(true_level, rel=0.15)

    def test_absent_analyte_reads_near_zero(self, calibrated_platform):
        estimates = calibrated_platform.measure_sample(
            {"glucose": 0.5e-3}, np.random.default_rng(4))
        assert estimates["lactate"] < 0.05e-3

    def test_requires_calibration(self):
        platform = reference_metabolite_platform()
        with pytest.raises(RuntimeError, match="calibrated"):
            platform.measure_sample({"glucose": 1e-3})


class TestMonitoring:
    def test_tracks_profiles(self, calibrated_platform):
        hours = np.linspace(0.0, 4.0, 5)
        profiles = {
            "glucose": np.linspace(0.8e-3, 0.2e-3, 5),   # consumption
            "lactate": np.linspace(0.1e-3, 0.6e-3, 5),   # production
            "glutamate": np.full(5, 0.5e-3),
        }
        estimates = calibrated_platform.monitor(
            hours, profiles, np.random.default_rng(8))
        # Trends recovered: glucose falls, lactate rises.
        assert estimates["glucose"][-1] < estimates["glucose"][0]
        assert estimates["lactate"][-1] > estimates["lactate"][0]

    def test_rejects_mismatched_profiles(self, calibrated_platform):
        with pytest.raises(ValueError, match="timeline"):
            calibrated_platform.monitor(
                np.linspace(0, 1, 3), {"glucose": np.zeros(5)})
