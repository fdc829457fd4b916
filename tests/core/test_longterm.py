"""Tests for repro.core.longterm (drift budget and recalibration)."""

import numpy as np
import pytest

from repro.bio.matrix import BUFFER, SERUM
from repro.core.longterm import (
    DriftBudget,
    one_point_recalibration,
    one_point_recalibration_batch,
)
from repro.enzymes.stability import EnzymeStability

WEEK_S = 7 * 24 * 3600.0


@pytest.fixture()
def budget():
    return DriftBudget(
        stability=EnzymeStability(half_life_s=2 * WEEK_S),
        matrix=SERUM,
    )


class TestDriftBudget:
    def test_full_sensitivity_at_zero(self, budget):
        assert budget.sensitivity_retention(0.0) == pytest.approx(1.0)

    def test_retention_decays(self, budget):
        day = budget.sensitivity_retention(24.0)
        week = budget.sensitivity_retention(7 * 24.0)
        assert 0.0 < week < day < 1.0

    def test_serum_decays_faster_than_buffer(self, budget):
        clean = DriftBudget(stability=budget.stability, matrix=BUFFER,
                            temperature_k=budget.temperature_k)
        assert clean.sensitivity_retention(48.0) \
            > budget.sensitivity_retention(48.0)

    def test_body_temperature_decays_faster_than_room(self, budget):
        cool = DriftBudget(stability=budget.stability, matrix=SERUM,
                           temperature_k=298.15)
        assert cool.sensitivity_retention(48.0) \
            > budget.sensitivity_retention(48.0)

    def test_hours_to_error_consistent(self, budget):
        deadline = budget.hours_to_error(0.1)
        assert budget.sensitivity_retention(deadline) \
            == pytest.approx(0.9, rel=1e-2)

    def test_schedule_spacing(self, budget):
        times = budget.recalibration_schedule(
            horizon_hours=7 * 24.0, max_relative_error=0.1)
        assert len(times) >= 2
        intervals = [b - a for a, b in zip(times, times[1:])]
        assert all(i == pytest.approx(intervals[0]) for i in intervals)

    def test_stable_sensor_needs_no_recalibration(self):
        budget = DriftBudget(
            stability=EnzymeStability(half_life_s=1e12),
            matrix=BUFFER)
        assert budget.recalibration_schedule(1000.0, 0.1) == []

    def test_rejects_bad_error_limit(self, budget):
        with pytest.raises(ValueError):
            budget.hours_to_error(0.0)


class TestRecalibration:
    def test_one_point_recovers_true_slope(self):
        true_slope = 1.4e-4
        signal = true_slope * 0.5e-3 + 1e-9
        corrected = one_point_recalibration(
            slope_a_per_molar=2e-4,  # stale calibration
            reference_concentration_molar=0.5e-3,
            measured_signal_a=signal,
            intercept_a=1e-9)
        assert corrected == pytest.approx(true_slope, rel=1e-9)

    def test_rejects_dead_reference_measurement(self):
        with pytest.raises(ValueError, match="non-positive"):
            one_point_recalibration(1e-4, 0.5e-3, measured_signal_a=0.0,
                                    intercept_a=1e-6)


class TestBatchKernels:
    """Scalar-vs-batch equivalence: the scalar API is the contract, the
    batch kernels are what the streaming monitor actually runs."""

    def test_retention_batch_matches_scalar(self, budget):
        hours = np.array([[0.0, 12.0, 48.0], [6.0, 24.0, 168.0]])
        batch = budget.sensitivity_retention_batch(hours)
        for row in range(hours.shape[0]):
            for col in range(hours.shape[1]):
                assert batch[row, col] == pytest.approx(
                    budget.sensitivity_retention(float(hours[row, col])),
                    rel=1e-12)

    def test_retention_is_enzyme_decay_times_matrix_fouling(self, budget):
        """The fused exponent is the product of the enzyme-only decay (a
        clean buffer) and the matrix's own fouling retention."""
        hours = np.array([[0.0, 12.0, 48.0], [6.0, 24.0, 168.0]])
        enzyme_only = DriftBudget(stability=budget.stability, matrix=BUFFER)
        np.testing.assert_allclose(
            budget.sensitivity_retention_batch(hours),
            enzyme_only.sensitivity_retention_batch(hours)
            * SERUM.sensitivity_retention_batch(hours), rtol=1e-12)

    def test_decay_rate_consistent_with_hours_to_error(self, budget):
        assert budget.hours_to_error(0.1) == pytest.approx(
            -np.log(0.9) / budget.decay_rate_per_hour)

    def test_one_point_batch_matches_scalar(self):
        slopes = np.array([2e-4, 1e-4, 3e-4])
        references = np.array([0.5e-3, 1e-3, 0.2e-3])
        signals = np.array([1.4e-4 * 0.5e-3, 0.9e-4 * 1e-3, 2.5e-4 * 0.2e-3])
        batch, applied = one_point_recalibration_batch(
            slopes, references, signals)
        assert applied.all()
        for i in range(slopes.size):
            assert batch[i] == pytest.approx(one_point_recalibration(
                float(slopes[i]), float(references[i]), float(signals[i])),
                rel=1e-12)

    def test_one_point_batch_keeps_slope_on_dead_channel(self):
        slopes = np.array([2e-4, 1e-4])
        batch, applied = one_point_recalibration_batch(
            slopes, np.array([0.5e-3, 0.5e-3]),
            np.array([1.4e-4 * 0.5e-3, 0.0]),
            intercepts_a=np.array([0.0, 1e-6]))
        assert applied.tolist() == [True, False]
        assert batch[1] == slopes[1]

    def test_one_point_batch_validation(self):
        with pytest.raises(ValueError):
            one_point_recalibration_batch(
                np.array([-1.0]), np.array([1e-3]), np.array([1e-7]))
        with pytest.raises(ValueError):
            one_point_recalibration_batch(
                np.array([1e-4]), np.array([0.0]), np.array([1e-7]))
