"""Tests for repro.core.calibration."""

import numpy as np
import pytest

from repro.core.calibration import (
    CalibrationError,
    CalibrationProtocol,
    default_protocol_for_range,
    run_calibration,
)


class TestProtocol:
    def test_default_protocol_spans_range(self):
        protocol = default_protocol_for_range(1e-3)
        assert min(protocol.concentrations_molar) == pytest.approx(1e-4)
        assert max(protocol.concentrations_molar) == pytest.approx(1.6e-3)

    def test_rejects_descending_standards(self):
        with pytest.raises(ValueError):
            CalibrationProtocol(concentrations_molar=(2e-3, 1e-3, 3e-3))

    def test_rejects_too_few_standards(self):
        with pytest.raises(ValueError):
            CalibrationProtocol(concentrations_molar=(1e-3, 2e-3))

    def test_rejects_single_blank(self):
        with pytest.raises(ValueError):
            CalibrationProtocol(concentrations_molar=(1e-3, 2e-3, 3e-3),
                                n_blanks=1)


class TestGlucoseCalibration:
    @pytest.fixture(scope="class")
    def result(self, glucose_sensor):
        protocol = default_protocol_for_range(1e-3)
        return run_calibration(glucose_sensor, protocol,
                               np.random.default_rng(42))

    def test_sensitivity_matches_paper(self, result):
        assert result.sensitivity_paper == pytest.approx(55.5, rel=0.05)

    def test_linear_range_matches_paper(self, result):
        assert result.linear_range_molar[1] == pytest.approx(1e-3, rel=0.3)

    def test_lod_matches_paper(self, result):
        assert result.lod_molar == pytest.approx(2e-6, rel=0.6)

    def test_fit_quality(self, result):
        assert result.r_squared > 0.995

    def test_summary_contains_units(self, result):
        text = result.summary()
        assert "uA mM^-1 cm^-2" in text
        assert "LOD" in text

    def test_points_are_recorded(self, result):
        assert len(result.points) == 9
        concentrations = [p.concentration_molar for p in result.points]
        assert concentrations == sorted(concentrations)

    def test_saturating_points_excluded(self, result):
        # Standards at 1.25x and 1.6x the range must not be in the fit.
        assert result.n_linear_points <= 7


class TestCalibrationFailureModes:
    def test_dead_sensor_raises(self, glucose_sensor):
        """A sensor whose signal never rises produces a CalibrationError,
        not silent garbage."""
        from dataclasses import replace
        dead_layer = replace(glucose_sensor.layer,
                             coverage_mol_m2=1e-30)
        dead = replace(glucose_sensor, layer=dead_layer,
                       repeatability_std_a=1e-9)
        protocol = default_protocol_for_range(1e-3)
        with pytest.raises(CalibrationError):
            run_calibration(dead, protocol, np.random.default_rng(0))

    def test_reproducible_given_seed(self, glucose_sensor):
        protocol = default_protocol_for_range(1e-3)
        r1 = run_calibration(glucose_sensor, protocol,
                             np.random.default_rng(5))
        r2 = run_calibration(glucose_sensor, protocol,
                             np.random.default_rng(5))
        assert r1.sensitivity_paper == r2.sensitivity_paper
        assert r1.lod_molar == r2.lod_molar
