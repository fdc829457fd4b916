"""Tests for the batch drift kernels in repro.signal.drift."""

import numpy as np
import pytest

import repro.rng
from repro.signal.drift import (
    correct_linear_drift,
    correct_linear_drift_batch,
    estimate_drift_rate,
    estimate_drift_rate_batch,
    ou_process_batch,
)
from repro.rng import spawn_generators


@pytest.fixture()
def traces():
    time_s = np.linspace(0.0, 100.0, 51)
    rates = np.array([0.5, -0.2, 0.0])
    offsets = np.array([1.0, 2.0, -3.0])
    y = offsets[:, None] + rates[:, None] * time_s[None, :]
    return time_s, y, rates


class TestEstimateBatch:
    def test_matches_scalar_per_channel(self, traces):
        time_s, y, __ = traces
        batch = estimate_drift_rate_batch(time_s, y)
        scalar = np.array([estimate_drift_rate(time_s, row) for row in y])
        np.testing.assert_allclose(batch, scalar, rtol=1e-9)

    def test_recovers_known_rates(self, traces):
        time_s, y, rates = traces
        np.testing.assert_allclose(
            estimate_drift_rate_batch(time_s, y), rates, atol=1e-12)

    def test_shape_validation(self, traces):
        time_s, y, __ = traces
        with pytest.raises(ValueError):
            estimate_drift_rate_batch(time_s, y[:, :-1])
        with pytest.raises(ValueError):
            estimate_drift_rate_batch(time_s[:1], y[:, :1])
        with pytest.raises(ValueError):
            estimate_drift_rate_batch(np.zeros(51), y)


class TestCorrectBatch:
    def test_roundtrip_flattens(self, traces):
        time_s, y, rates = traces
        corrected = correct_linear_drift_batch(time_s, y, rates)
        residual_rates = estimate_drift_rate_batch(time_s, corrected)
        np.testing.assert_allclose(residual_rates, 0.0, atol=1e-12)

    def test_matches_scalar_per_channel(self, traces):
        time_s, y, rates = traces
        batch = correct_linear_drift_batch(time_s, y, rates)
        for i, row in enumerate(y):
            np.testing.assert_array_equal(
                batch[i], correct_linear_drift(time_s, row, rates[i]))

    def test_anchor_preserved(self, traces):
        time_s, y, rates = traces
        corrected = correct_linear_drift_batch(time_s, y, rates)
        np.testing.assert_allclose(corrected[:, 0], y[:, 0])

    def test_rate_count_validation(self, traces):
        time_s, y, __ = traces
        with pytest.raises(ValueError):
            correct_linear_drift_batch(time_s, y, np.zeros(2))


def per_sample_ou(n_samples, dt_s, tau_s, sigma, x0, shocks):
    """The OU recursion stepped one sample at a time: the oracle that the
    lfilter form of :func:`ou_process_batch` must match bit for bit."""
    a = np.exp(-dt_s / np.broadcast_to(tau_s, x0.shape))
    innovation_scale = np.broadcast_to(sigma, x0.shape) * np.sqrt(
        1.0 - a ** 2)
    values = np.empty((x0.size, n_samples))
    state = x0
    for k in range(n_samples):
        state = a * state + innovation_scale * shocks[:, k]
        values[:, k] = state
    return values, values[:, -1].copy()


def per_channel_shocks(seed, n_channels, n_samples):
    return np.stack([rng.standard_normal(n_samples)
                     for rng in spawn_generators(seed, n_channels)])


class TestOuBitIdentity:
    """``ou_process_batch`` equals the per-sample recursion exactly."""

    @pytest.mark.parametrize("n_samples", [1, 2, 500])
    def test_heterogeneous_tau_with_frozen_channels(self, n_samples):
        tau = np.array([30.0, np.inf, 3600.0, 30.0, np.inf, 7.5])
        sigma = np.array([1.0, 2.0, 0.3, 4.0, 0.0, 1e-9])
        x0 = np.array([0.5, -1.0, 2.0, 0.0, 3.0, -0.25])
        values, state = ou_process_batch(
            n_samples, 60.0, tau, sigma, x0, rngs=spawn_generators(3, 6))
        expected, expected_state = per_sample_ou(
            n_samples, 60.0, tau, sigma, x0,
            per_channel_shocks(3, 6, n_samples))
        np.testing.assert_array_equal(values, expected)
        np.testing.assert_array_equal(state, expected_state)
        np.testing.assert_array_equal(values[[1, 4]], x0[[1, 4], None]
                                      * np.ones(n_samples))

    @pytest.mark.parametrize("n_samples", [1, 300])
    def test_zero_sigma(self, n_samples):
        x0 = np.array([8.0, -2.0, 0.0])
        values, state = ou_process_batch(
            n_samples, 1.0, 2.0, 0.0, x0, rngs=spawn_generators(0, 3))
        expected, expected_state = per_sample_ou(
            n_samples, 1.0, 2.0, 0.0, x0, per_channel_shocks(0, 3, n_samples))
        np.testing.assert_array_equal(values, expected)
        np.testing.assert_array_equal(state, expected_state)

    def test_single_sample_uniform_cohort(self):
        x0 = np.linspace(-1.0, 1.0, 5)
        values, state = ou_process_batch(
            1, 300.0, 1800.0, 0.7, x0, rngs=spawn_generators(9, 5))
        expected, expected_state = per_sample_ou(
            1, 300.0, 1800.0, 0.7, x0, per_channel_shocks(9, 5, 1))
        np.testing.assert_array_equal(values, expected)
        np.testing.assert_array_equal(state, expected_state)

    def test_shared_stream_path(self):
        tau = np.array([10.0, 40.0, 10.0])
        x0 = np.array([1.0, 0.0, -1.0])
        repro.rng.set_global_seed(21)
        values, state = ou_process_batch(200, 1.0, tau, 1.5, x0)
        repro.rng.set_global_seed(21)
        shocks = repro.rng.get_rng(None).standard_normal((3, 200))
        repro.rng.set_global_seed(None)
        expected, expected_state = per_sample_ou(200, 1.0, tau, 1.5, x0,
                                                 shocks)
        np.testing.assert_array_equal(values, expected)
        np.testing.assert_array_equal(state, expected_state)


class TestOuProcess:
    def test_chunk_invariance(self):
        """The monitor's streaming contract: chunk boundaries with
        carried state reproduce one long call exactly."""
        whole, __ = ou_process_batch(
            100, 1.0, 30.0, 2.0, np.zeros(4),
            rngs=spawn_generators(5, 4))
        rngs = spawn_generators(5, 4)
        state = np.zeros(4)
        pieces = []
        for chunk in (7, 13, 41, 39):
            values, state = ou_process_batch(
                chunk, 1.0, 30.0, 2.0, state, rngs=rngs)
            pieces.append(values)
        np.testing.assert_array_equal(np.hstack(pieces), whole)

    def test_stationary_statistics(self):
        values, __ = ou_process_batch(
            20000, 1.0, 5.0, 3.0, np.zeros(8),
            rngs=spawn_generators(1, 8))
        tail = values[:, 100:]
        assert float(np.mean(tail)) == pytest.approx(0.0, abs=0.3)
        assert float(np.std(tail)) == pytest.approx(3.0, rel=0.1)

    def test_zero_sigma_is_deterministic_decay(self):
        values, state = ou_process_batch(
            10, 1.0, 2.0, 0.0, np.array([8.0]),
            rngs=spawn_generators(0, 1))
        expected = 8.0 * np.exp(-np.arange(1, 11) / 2.0)
        np.testing.assert_allclose(values[0], expected, rtol=1e-12)
        assert state[0] == values[0, -1]

    def test_seedable_via_global_seed(self):
        """rng=None draws from the shared stream: reproducible under
        set_global_seed (the PR's seedability guarantee)."""
        repro.rng.set_global_seed(77)
        a, __ = ou_process_batch(50, 1.0, 10.0, 1.0, np.zeros(2))
        repro.rng.set_global_seed(77)
        b, __ = ou_process_batch(50, 1.0, 10.0, 1.0, np.zeros(2))
        repro.rng.set_global_seed(None)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            ou_process_batch(0, 1.0, 1.0, 1.0, np.zeros(1))
        with pytest.raises(ValueError):
            ou_process_batch(5, -1.0, 1.0, 1.0, np.zeros(1))
        with pytest.raises(ValueError):
            ou_process_batch(5, 1.0, 0.0, 1.0, np.zeros(1))
        with pytest.raises(ValueError):
            ou_process_batch(5, 1.0, np.nan, 1.0, np.zeros(1))
        with pytest.raises(ValueError):
            ou_process_batch(5, 1.0, 1.0, -1.0, np.zeros(1))
        with pytest.raises(ValueError):
            ou_process_batch(5, 1.0, 1.0, 1.0, np.zeros(2),
                             rngs=spawn_generators(0, 3))
