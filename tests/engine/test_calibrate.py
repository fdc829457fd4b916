"""Tests for engine-backed calibration and the rewired Table 2 path."""

import numpy as np
import pytest

from repro.core.calibration import (
    default_protocol_for_range,
    run_calibration,
)
from repro.engine import (
    calibrate_panel,
    calibration_plan,
    run_calibration_batch,
)
from repro.experiments.table2 import run_table2


class TestCalibrationPlan:
    def test_blank_group_first(self, glucose_sensor):
        protocol = default_protocol_for_range(1e-3, n_blanks=5,
                                              n_replicates=3)
        plan = calibration_plan([glucose_sensor], [protocol], seed=1)
        assert plan.concentrations_molar[0][0] == 0.0
        assert plan.replicates_for(0)[0] == 5
        assert plan.replicates_for(0)[1:] == (3,) * 9
        assert plan.n_cells == 5 + 9 * 3

    def test_rejects_length_mismatch(self, glucose_sensor):
        with pytest.raises(ValueError, match="protocols"):
            calibration_plan([glucose_sensor], [], seed=1)


class TestRunCalibrationBatch:
    def test_matches_scalar_pipeline_statistically(self, glucose_sensor):
        """Engine and scalar calibrations share the physics; only the
        noise realizations differ, so extracted metrics agree closely."""
        protocol = default_protocol_for_range(1e-3)
        batch = run_calibration_batch(glucose_sensor, protocol, seed=7)
        scalar = run_calibration(glucose_sensor, protocol,
                                 np.random.default_rng(7))
        assert batch.sensitivity_paper == pytest.approx(
            scalar.sensitivity_paper, rel=0.05)
        assert batch.linear_range_molar[1] == pytest.approx(
            scalar.linear_range_molar[1], rel=0.3)

    def test_deterministic_under_seed(self, glucose_sensor):
        protocol = default_protocol_for_range(1e-3)
        a = run_calibration_batch(glucose_sensor, protocol, seed=11)
        b = run_calibration_batch(glucose_sensor, protocol, seed=11)
        assert a.slope_a_per_molar == b.slope_a_per_molar
        assert a.blank_std_a == b.blank_std_a
        assert a.lod_molar == b.lod_molar

    def test_engine_metadata(self, glucose_sensor):
        protocol = default_protocol_for_range(1e-3)
        result = run_calibration_batch(glucose_sensor, protocol, seed=11)
        assert result.metadata["engine"] is True
        assert result.metadata["seed"] == 11
        assert result.metadata["protocol"] is protocol

    def test_noiseless_calibration_collapses_lod(self, glucose_sensor):
        """With noise off the blank scatter is exactly zero, so the
        extracted LOD is zero and the fit is near-perfect."""
        protocol = default_protocol_for_range(1e-3)
        result = run_calibration_batch(glucose_sensor, protocol,
                                       add_noise=False)
        assert result.blank_std_a == 0.0
        assert result.lod_molar == 0.0
        assert result.r_squared > 0.999

    def test_saturated_protocol_still_gated(self, glucose_sensor):
        """The engine path keeps the scalar pipeline's quality gates: a
        grid far past the Michaelis-Menten range cannot calibrate."""
        from repro.core.calibration import CalibrationError

        with pytest.raises(CalibrationError):
            run_calibration_batch(glucose_sensor,
                                  default_protocol_for_range(1e3),
                                  seed=1, add_noise=False)


class TestCalibratePanel:
    def test_panel_order_and_results(self, glucose_sensor,
                                     glutamate_sensor):
        protocols = [
            default_protocol_for_range(
                glucose_sensor.linear_range_upper_molar()),
            default_protocol_for_range(
                glutamate_sensor.linear_range_upper_molar()),
        ]
        results = calibrate_panel([glucose_sensor, glutamate_sensor],
                                  protocols, seed=7)
        assert len(results) == 2
        assert results[0].sensor_name == glucose_sensor.name
        assert results[1].sensor_name == glutamate_sensor.name
        for result in results:
            assert result.slope_a_per_molar > 0


class TestTable2EngineRewire:
    def test_engine_and_scalar_paths_agree(self):
        engine_rows = run_table2(groups=["glucose"], seed=7)
        scalar_rows = run_table2(groups=["glucose"], seed=7,
                                 use_engine=False)
        assert engine_rows.keys() == scalar_rows.keys()
        for sensor_id in engine_rows:
            assert engine_rows[sensor_id].measured_sensitivity == \
                pytest.approx(
                    scalar_rows[sensor_id].measured_sensitivity, rel=0.1)

    def test_engine_rows_deterministic(self):
        a = run_table2(groups=["glucose"], seed=13)
        b = run_table2(groups=["glucose"], seed=13)
        for sensor_id in a:
            assert (a[sensor_id].result.slope_a_per_molar
                    == b[sensor_id].result.slope_a_per_molar)
