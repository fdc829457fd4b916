"""Tests for repro.engine.estimation (the reconstruction workload)."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.estimation import EstimationPlan, run_estimation
from repro.engine.monitor import MonitorPlan, glucose_cohort


@pytest.fixture(scope="module")
def plan():
    return EstimationPlan(monitor=MonitorPlan(
        channels=glucose_cohort(4), duration_h=24.0,
        sample_period_s=600.0, seed=42))


@pytest.fixture(scope="module")
def result(plan):
    return run_estimation(plan)


class TestPlan:
    def test_requires_traces(self):
        with pytest.raises(ValueError, match="keep_traces"):
            EstimationPlan(monitor=MonitorPlan(
                channels=glucose_cohort(2), duration_h=6.0,
                keep_traces=False))

    def test_interval_level_validated(self, plan):
        with pytest.raises(ValueError, match="interval level"):
            replace(plan, interval_level=1.5)

    def test_delegated_properties(self, plan):
        assert plan.n_channels == 4
        assert plan.n_samples == plan.monitor.n_samples
        assert plan.seed == 42
        assert plan.duration_h == 24.0
        assert plan.interval_z == pytest.approx(1.959964, rel=1e-5)


class TestRunEstimation:
    def test_reconstruction_beats_linear_estimator(self, result):
        assert float(np.mean(result.filtered_mard)) \
            < 0.5 * float(np.mean(result.linear_mard))

    def test_coverage_calibrated(self, result):
        filtered = float(np.mean(result.filtered_coverage))
        smoothed = float(np.mean(result.smoothed_coverage))
        assert 0.90 <= filtered <= 0.99
        assert 0.90 <= smoothed <= 0.99

    def test_traces_shaped_and_physical(self, plan, result):
        shape = (plan.n_channels, plan.n_samples)
        assert result.filtered_concentration_molar.shape == shape
        assert result.smoothed_concentration_molar.shape == shape
        assert np.all(result.filtered_concentration_molar >= 0)
        assert np.all(result.filtered_std_molar >= 0)

    def test_interval_contains_reconstruction(self, result):
        # The default band follows the default reconstruction (the
        # smoothed pass here), so the pair is always consistent.
        lower, upper = result.interval()
        reconstruction, _ = result.reconstruction()
        assert np.all(lower <= reconstruction + 1e-18)
        assert np.all(reconstruction <= upper + 1e-18)
        filtered_lower, filtered_upper = result.interval(smoothed=False)
        assert np.all(
            filtered_lower <= result.filtered_concentration_molar + 1e-18)
        assert np.all(
            result.filtered_concentration_molar <= filtered_upper + 1e-18)

    def test_reconstruction_prefers_smoothed(self, result):
        best, std = result.reconstruction()
        np.testing.assert_array_equal(
            best, result.smoothed_concentration_molar)
        np.testing.assert_array_equal(std, result.smoothed_std_molar)

    def test_smooth_off_skips_smoother(self, plan):
        causal = run_estimation(replace(plan, smooth=False))
        assert causal.smoothed_concentration_molar is None
        assert causal.smoothed_mard is None
        best, _ = causal.reconstruction()
        np.testing.assert_array_equal(
            best, causal.filtered_concentration_molar)
        with pytest.raises(ValueError, match="smoother"):
            causal.interval(smoothed=True)

    def test_detection_delays_delegate(self, result):
        from repro.analytes.physiological import physiological_range

        window = physiological_range("glucose")
        delays = result.excursion_detection_delays_h(
            window.low_molar, window.high_molar)
        assert delays.shape == (result.plan.n_channels,)

    def test_deterministic_replay(self, plan):
        a = run_estimation(plan)
        b = run_estimation(plan)
        np.testing.assert_array_equal(a.filtered_concentration_molar,
                                      b.filtered_concentration_molar)

    @pytest.mark.parametrize("chunk", [1, 13, None])
    def test_outputs_exact_across_chunk_sizes(self, plan, result, chunk):
        """The filter carries its exact posterior between chunks and
        the smoother derives its predictions from the stored trace, so
        every reconstruction array is bit-identical at any chunking
        (``None``: the whole horizon in one chunk)."""
        rechunked = run_estimation(replace(plan, monitor=replace(
            plan.monitor, chunk_samples=chunk or plan.n_samples)))
        for name in ("filtered_concentration_molar",
                     "filtered_std_molar",
                     "smoothed_concentration_molar",
                     "smoothed_std_molar"):
            np.testing.assert_array_equal(getattr(rechunked, name),
                                          getattr(result, name),
                                          err_msg=name)


class TestResultExports:
    def test_summary_mentions_coverage_and_channels(self, result):
        text = result.summary()
        assert "coverage" in text
        assert "patient-000" in text
        assert "linear" in text

    def test_summary_row_flat_and_serializable(self, result):
        row = result.summary_row()
        assert row["workload"] == "estimation"
        assert row["n_channels"] == 4
        assert 0.90 <= row["cohort_filtered_coverage"] <= 0.99
        json.dumps(row)

    def test_to_dict_with_traces(self, result):
        data = result.to_dict(include_traces=True)
        assert len(data["channels"]) == 4
        assert "smoothed_mard" in data["channels"][0]
        assert len(data["filtered_std_molar"]) == 4
        json.dumps(data)

    def test_to_dict_without_traces_is_compact(self, result):
        data = result.to_dict()
        assert "filtered_concentration_molar" not in data
