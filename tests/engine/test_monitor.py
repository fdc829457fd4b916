"""Tests for repro.engine.monitor (streaming wear-time simulation)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analytes.physiological import ConcentrationTrajectory
from repro.bio.matrix import BUFFER, SERUM
from repro.core.longterm import DriftBudget
from repro.core.registry import build_sensor, spec_by_id
from repro.engine.estimation import EstimationPlan
from repro.engine.monitor import (
    MonitorChannel,
    MonitorPlan,
    RecalibrationPolicy,
    cohort,
    digitize_rows,
    glucose_cohort,
    run_monitor,
)
from repro.engine.core import (
    assert_fields_match,
    execute,
    kernels_for,
    run_scalar,
)
from repro.enzymes.stability import EnzymeStability

WEEK_S = 7 * 24 * 3600.0


@pytest.fixture(scope="module")
def channels():
    return glucose_cohort(n_patients=3)


def short_plan(channels, **overrides) -> MonitorPlan:
    settings = dict(channels=channels, duration_h=36.0,
                    sample_period_s=900.0, chunk_samples=32, seed=99)
    settings.update(overrides)
    return MonitorPlan(**settings)


class TestPlanValidation:
    def test_rejects_empty_cohort(self):
        with pytest.raises(ValueError):
            MonitorPlan(channels=(), duration_h=24.0)

    def test_rejects_non_positive_duration(self, channels):
        with pytest.raises(ValueError):
            MonitorPlan(channels=channels, duration_h=0.0)

    def test_rejects_horizon_shorter_than_period(self, channels):
        with pytest.raises(ValueError):
            MonitorPlan(channels=channels, duration_h=0.01,
                        sample_period_s=3600.0)

    def test_rejects_reference_faster_than_sampling(self, channels):
        with pytest.raises(ValueError):
            MonitorPlan(channels=channels, duration_h=24.0,
                        sample_period_s=3600.0,
                        recalibration=RecalibrationPolicy(
                            reference_interval_h=0.5))

    def test_rejects_bad_spec_tolerance(self, channels):
        with pytest.raises(ValueError):
            MonitorPlan(channels=channels, duration_h=24.0,
                        spec_tolerance=1.5)

    def test_sample_count(self, channels):
        plan = MonitorPlan(channels=channels, duration_h=24.0,
                           sample_period_s=3600.0)
        assert plan.n_samples == 24
        assert plan.n_channels == 3

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RecalibrationPolicy(reference_interval_h=-1.0)
        with pytest.raises(ValueError):
            RecalibrationPolicy(tolerance=0.0)

    def test_channel_validation(self, channels):
        with pytest.raises(ValueError):
            replace(channels[0], wander_sigma_a=-1.0)
        with pytest.raises(ValueError):
            replace(channels[0], slope_a_per_molar=0.0)


class TestDeterminism:
    def test_same_seed_replays(self, channels):
        a = run_monitor(short_plan(channels))
        b = run_monitor(short_plan(channels))
        np.testing.assert_array_equal(a.measured_current_a,
                                      b.measured_current_a)
        np.testing.assert_array_equal(a.mard, b.mard)

    def test_different_seed_differs(self, channels):
        a = run_monitor(short_plan(channels))
        b = run_monitor(short_plan(channels, seed=100))
        assert np.any(a.measured_current_a != b.measured_current_a)

    def test_noiseless_run_is_deterministic_without_seed(self, channels):
        a = run_monitor(short_plan(channels, seed=None, add_noise=False))
        b = run_monitor(short_plan(channels, seed=None, add_noise=False))
        np.testing.assert_array_equal(a.measured_current_a,
                                      b.measured_current_a)


class TestDriftAndRecalibration:
    def test_open_loop_mard_grows_with_drift(self, channels):
        policy = RecalibrationPolicy(enabled=False)
        short = run_monitor(short_plan(channels, duration_h=12.0,
                                       recalibration=policy,
                                       add_noise=False))
        long = run_monitor(short_plan(channels, duration_h=72.0,
                                      recalibration=policy,
                                      add_noise=False))
        assert float(np.mean(long.mard)) > float(np.mean(short.mard))

    def test_recalibration_reduces_mard(self, channels):
        open_loop = run_monitor(short_plan(
            channels, duration_h=72.0,
            recalibration=RecalibrationPolicy(enabled=False)))
        closed = run_monitor(short_plan(
            channels, duration_h=72.0,
            recalibration=RecalibrationPolicy(
                reference_interval_h=6.0, tolerance=0.05)))
        assert float(np.mean(closed.mard)) < float(np.mean(open_loop.mard))
        assert np.all(closed.n_recalibrations >= 1)
        assert np.all(open_loop.n_recalibrations == 0)

    def test_recalibration_times_are_reference_aligned(self, channels):
        policy = RecalibrationPolicy(reference_interval_h=6.0,
                                     tolerance=0.05)
        result = run_monitor(short_plan(channels, duration_h=72.0,
                                        recalibration=policy))
        for times in result.recalibration_times_h:
            for t in times:
                assert t / 6.0 == pytest.approx(round(t / 6.0))

    def test_no_drift_no_recalibration(self):
        # Concentrations deep inside the linear range (C << Km), so the
        # linear estimator carries no Michaelis-Menten bias: with no
        # drift and no noise there is nothing for a re-fit to absorb.
        stable = MonitorChannel(
            patient_id="stable",
            sensor=glucose_cohort(1)[0].sensor,
            trajectory=ConcentrationTrajectory(
                baseline_molar=5e-5,
                circadian_amplitude_molar=1e-5,
                floor_molar=1e-5),
            budget=DriftBudget(
                stability=EnzymeStability(half_life_s=1e9 * WEEK_S),
                matrix=BUFFER,
                temperature_k=298.15),
        )
        result = run_monitor(short_plan((stable,), duration_h=72.0,
                                        add_noise=False))
        assert int(result.n_recalibrations[0]) == 0
        assert result.final_retention[0] > 0.999
        # Quantization-only error: estimates essentially perfect.
        assert float(result.mard[0]) < 0.01

    def test_zero_floor_reference_sample_skips_recal(self, channels):
        """Regression: a channel whose true level clamps to a 0.0
        trajectory floor at a reference sample must skip that re-fit,
        not crash the cohort (on either path)."""
        noisy = MonitorChannel(
            patient_id="noisy",
            sensor=channels[0].sensor,
            trajectory=ConcentrationTrajectory(
                baseline_molar=1e-4,
                noise_sigma_molar=5e-4,   # clamps to the floor often
                noise_tau_h=0.5,
                floor_molar=0.0),
            budget=channels[0].budget,
        )
        plan = short_plan((noisy,), duration_h=48.0,
                          recalibration=RecalibrationPolicy(
                              reference_interval_h=0.25,
                              tolerance=0.05),
                          sample_period_s=900.0)
        batch = run_monitor(plan)
        scalar = run_scalar("monitor", plan)
        assert np.any(batch.true_concentration_molar == 0.0)
        assert np.isfinite(batch.mard).all()
        np.testing.assert_allclose(
            batch.estimated_concentration_molar,
            scalar.estimated_concentration_molar, rtol=0.0, atol=1e-9)
        assert batch.recalibration_times_h == scalar.recalibration_times_h

    def test_reference_schedule_that_never_fires(self, channels):
        """Regression (the zero-recalibration path): a reference
        interval longer than the wear time is legal — the plan degrades
        to open-loop monitoring, identically on both engine paths, and
        reports it through ``n_reference_draws``."""
        plan = short_plan(channels, duration_h=6.0,
                          recalibration=RecalibrationPolicy(
                              reference_interval_h=12.0))
        assert plan.n_reference_draws == 0
        batch = run_monitor(plan)
        scalar = run_scalar("monitor", plan)
        assert int(np.sum(batch.n_recalibrations)) == 0
        assert int(np.sum(scalar.n_recalibrations)) == 0
        np.testing.assert_allclose(
            batch.estimated_concentration_molar,
            scalar.estimated_concentration_molar, rtol=0.0, atol=1e-9)
        open_loop = run_monitor(short_plan(
            channels, duration_h=6.0,
            recalibration=RecalibrationPolicy(enabled=False)))
        np.testing.assert_array_equal(
            batch.estimated_concentration_molar,
            open_loop.estimated_concentration_molar)

    def test_reference_draw_count_property(self, channels):
        plan = short_plan(channels, duration_h=36.0,
                          recalibration=RecalibrationPolicy(
                              reference_interval_h=12.0))
        assert plan.n_reference_draws == 3
        disabled = short_plan(channels, duration_h=36.0,
                              recalibration=RecalibrationPolicy(
                                  enabled=False))
        assert disabled.n_reference_draws == 0

    def test_reference_on_final_sample_still_fires(self, channels):
        """Boundary of the zero-recal path: an interval equal to the
        wear time fires exactly once, at the last sample."""
        plan = short_plan(channels, duration_h=36.0,
                          recalibration=RecalibrationPolicy(
                              reference_interval_h=36.0,
                              tolerance=0.01))
        assert plan.n_reference_draws == 1
        batch = run_monitor(plan)
        scalar = run_scalar("monitor", plan)
        np.testing.assert_array_equal(batch.n_recalibrations,
                                      scalar.n_recalibrations)
        for times in batch.recalibration_times_h:
            assert all(t == pytest.approx(36.0) for t in times)

    def test_final_retention_matches_budget(self, channels):
        result = run_monitor(short_plan(channels))
        t_end_h = result.plan.n_samples * result.plan.sample_period_s / 3600
        for i, channel in enumerate(channels):
            assert result.final_retention[i] == pytest.approx(
                channel.budget.sensitivity_retention(t_end_h))


class TestMonitorResult:
    def test_trace_shapes(self, channels):
        plan = short_plan(channels)
        result = run_monitor(plan)
        shape = (plan.n_channels, plan.n_samples)
        assert result.true_concentration_molar.shape == shape
        assert result.estimated_concentration_molar.shape == shape
        assert result.measured_current_a.shape == shape
        assert result.time_h.shape == (plan.n_samples,)
        assert result.mard.shape == (plan.n_channels,)

    def test_keep_traces_off(self, channels):
        result = run_monitor(short_plan(channels, keep_traces=False))
        assert result.true_concentration_molar is None
        assert result.estimated_concentration_molar is None
        assert result.measured_current_a is None
        assert result.time_h is None
        assert result.mard.shape == (len(channels),)

    def test_summary_mentions_every_patient(self, channels):
        result = run_monitor(short_plan(channels))
        text = result.summary()
        for channel in channels:
            assert channel.patient_id in text
        assert "MARD" in text

    def test_time_in_spec_bounds(self, channels):
        result = run_monitor(short_plan(channels))
        assert np.all(result.time_in_spec >= 0.0)
        assert np.all(result.time_in_spec <= 1.0)
        assert np.all(result.mard >= 0.0)


class TestCohortBuilders:
    def test_cohort_size_and_ids(self, channels):
        assert len(channels) == 3
        assert len({c.patient_id for c in channels}) == 3

    def test_patients_differ_deterministically(self, channels):
        baselines = {c.trajectory.baseline_molar for c in channels}
        assert len(baselines) == 3
        again = glucose_cohort(n_patients=3)
        for a, b in zip(channels, again):
            assert a.trajectory == b.trajectory

    def test_rejects_empty_cohort(self):
        with pytest.raises(ValueError):
            cohort(glucose_cohort(1)[0].sensor, "glucose", 0)

    def test_custom_matrix(self):
        sensor = glucose_cohort(1)[0].sensor
        channels = cohort(sensor, "glucose", 2, matrix=SERUM)
        assert all(c.budget.matrix is SERUM for c in channels)

    def test_day0_overrides(self, channels):
        custom = replace(channels[0], slope_a_per_molar=1.0,
                         intercept_a=2.0)
        assert custom.day0_slope_a_per_molar == 1.0
        assert custom.day0_intercept_a == 2.0
        default = channels[0]
        assert (default.day0_slope_a_per_molar
                == default.sensor.expected_slope_a_per_molar())
        assert (default.day0_intercept_a
                == default.sensor.background_current_a)


class TestDigitizeRows:
    def test_rejects_more_rows_than_sensors(self, channels):
        with pytest.raises(ValueError,
                           match=r"currents block must be \(1, n_samples\)"):
            digitize_rows([channels[0].sensor], np.full((3, 4), 1e-7))

    def test_rejects_fewer_rows_than_sensors(self, channels):
        sensors = [c.sensor for c in channels]
        with pytest.raises(ValueError, match="currents block"):
            digitize_rows(sensors, np.full((1, 4), 1e-7))

    def test_rejects_one_dimensional_block(self, channels):
        with pytest.raises(ValueError, match="currents block"):
            digitize_rows([channels[0].sensor], np.full(4, 1e-7))

    def test_rows_go_through_their_own_chain(self, channels):
        chain = channels[0].sensor.chain
        currents = np.array([[1e-7, -2e-7], [3e-9, 0.0]])
        digitized = digitize_rows([channels[0].sensor] * 2, currents)
        rail_a = chain.tia.rail_v / chain.tia.gain_v_per_a
        lsb_a = chain.adc.lsb_v / chain.tia.gain_v_per_a
        assert digitized.shape == currents.shape
        assert np.all(np.abs(digitized) <= rail_a + lsb_a)
        assert np.all(np.abs(digitized - np.clip(currents, -rail_a, rail_a))
                      <= lsb_a)


def mixed_plan(**overrides) -> MonitorPlan:
    """Two glucose and two lactate wearers: two sensor designs, one
    cohort, an odd chunk size."""
    lactate = build_sensor(spec_by_id("lactate/this-work"))
    settings = dict(
        channels=glucose_cohort(2) + cohort(lactate, "lactate", 2,
                                            wander_sigma_a=1e-9),
        duration_h=24.0, sample_period_s=900.0, chunk_samples=7, seed=13)
    settings.update(overrides)
    return MonitorPlan(**settings)


class TestMixedSensorCohort:
    """The shared front end groups rows by sensor object; each group
    must read through its own design, on every path."""

    @pytest.fixture(scope="class", params=["monitor", "estimation"])
    def case(self, request):
        plan = mixed_plan()
        if request.param == "estimation":
            plan = EstimationPlan(monitor=plan)
        return kernels_for(request.param), plan

    def test_batch_matches_scalar(self, case):
        kernels, plan = case
        assert_fields_match(
            kernels.name, "mixed cohort, scalar",
            kernels.contract_fields(execute(kernels, plan)),
            kernels.contract_fields(kernels.run_scalar(plan)))

    def test_chunk_invariance(self, case):
        kernels, plan = case
        reference = kernels.contract_fields(execute(kernels, plan))
        for chunk in (1, 10**6):
            rechunked = kernels.with_chunk_samples(plan, chunk)
            assert_fields_match(
                kernels.name, f"mixed cohort, chunk={chunk}", reference,
                kernels.contract_fields(execute(kernels, rechunked)))

    def test_rows_match_single_design_cohorts(self):
        """Noiseless, each row reads exactly what it reads in a cohort
        of its own design."""
        mixed = mixed_plan(add_noise=False)
        glucose = replace(mixed, channels=mixed.channels[:2])
        lactate = replace(mixed, channels=mixed.channels[2:])
        measured = run_monitor(mixed).measured_current_a
        np.testing.assert_array_equal(
            measured[:2], run_monitor(glucose).measured_current_a)
        np.testing.assert_array_equal(
            measured[2:], run_monitor(lactate).measured_current_a)
        assert not np.allclose(measured[:2], measured[2:])
