"""Tests for repro.inference.kalman (filter + smoother recursions)."""

import numpy as np
import pytest

from repro.inference.kalman import (
    RTS_SLAB_STEPS,
    KalmanState,
    KalmanTrace,
    _dynamics,
    _inverse_2x2,
    _predictions,
    kalman_filter_batch,
    kalman_filter_scalar,
    kalman_predict,
    kalman_update,
    rts_smoother_batch,
    rts_smoother_scalar,
)


#: The smoother's slab length, and censored runs that straddle sample
#: ``SLAB``, where the back pass over a trace of two slabs moves from
#: the newer slab to the older.
SLAB = RTS_SLAB_STEPS
assert SLAB <= 4096, "slab-edge cases simulate up to 2 * SLAB + 1 samples"
CENSORED_ACROSS_SLAB = ((1, SLAB - 8, SLAB + 4), (3, 20, 30))


def simulate(n_channels=3, n_samples=400, seed=7,
             a_signal=0.95, sigma_signal=2.0, a_wander=0.99,
             sigma_wander=0.5, r=1.0, gain=1.5, offset=10.0):
    """A synthetic cohort drawn exactly from the filter's model."""
    rng = np.random.default_rng(seed)
    q_s = sigma_signal ** 2 * (1.0 - a_signal ** 2)
    q_w = sigma_wander ** 2 * (1.0 - a_wander ** 2)
    d = np.zeros(n_channels)
    w = np.zeros(n_channels)
    truth = np.empty((n_channels, n_samples))
    z = np.empty((n_channels, n_samples))
    for k in range(n_samples):
        d = a_signal * d + np.sqrt(q_s) * rng.standard_normal(n_channels)
        w = a_wander * w + np.sqrt(q_w) * rng.standard_normal(n_channels)
        truth[:, k] = d
        z[:, k] = (offset + gain * d + w
                   + np.sqrt(r) * rng.standard_normal(n_channels))
    params = dict(gain=np.full((n_channels, n_samples), gain),
                  offset=np.full((n_channels, n_samples), offset),
                  r=np.full(n_channels, r),
                  a_signal=a_signal, q_signal=q_s,
                  a_wander=a_wander, q_wander=q_w)
    return truth, z, params


def run_both(z, params):
    args = (params["gain"], params["offset"], params["r"],
            params["a_signal"], params["q_signal"],
            params["a_wander"], params["q_wander"])
    return kalman_filter_batch(z, *args), kalman_filter_scalar(z, *args)


def dynamics(params):
    """The filter's dynamics in its argument order."""
    return (params["a_signal"], params["q_signal"],
            params["a_wander"], params["q_wander"])


def belief_at(trace, index=-1):
    """The filtered belief at one sample of ``trace``, built from its
    columns as ``EstimationKernels.run_chunk`` carries it into the next
    chunk."""
    return KalmanState(*(getattr(trace, name)[:, index]
                         for name in ("m1", "m2", "p11", "p12", "p22")))


def transposed(trace):
    """The same moments with the axes swapped, C-contiguous."""
    return KalmanTrace(*(np.ascontiguousarray(getattr(trace, name).T)
                         for name in ("m1", "m2", "p11", "p12", "p22")))


def predictions(trace, *dynamics_args):
    """The smoother's derived one-step predictions of samples 1..T-1,
    ``(n_channels, n_samples - 1)``."""
    return transposed(_predictions(transposed(trace), *_dynamics(
        trace.m1.shape[0], *dynamics_args)))


def per_sample_rts(trace, a_signal, q_signal, a_wander, q_wander):
    """The RTS back-pass with each prediction and gain formed inside the
    time loop: the oracle that :func:`rts_smoother_batch` must match bit
    for bit."""
    n, t = trace.m1.shape
    a_s, q_s, a_w, q_w = (
        np.broadcast_to(np.asarray(p, dtype=float), (n,))
        for p in (a_signal, q_signal, a_wander, q_wander))
    out = KalmanTrace.empty(n, t)
    for name in ("m1", "m2", "p11", "p12", "p22"):
        getattr(out, name)[:, -1] = getattr(trace, name)[:, -1]
    for k in range(t - 2, -1, -1):
        # The filter's prediction of sample k + 1, from its posterior
        # at k.
        pm1 = trace.m1[:, k] * a_s
        pm2 = trace.m2[:, k] * a_w
        pp11 = trace.p11[:, k] * (a_s * a_s) + q_s
        pp12 = trace.p12[:, k] * (a_s * a_w)
        pp22 = trace.p22[:, k] * (a_w * a_w) + q_w
        i11, i12, i22 = _inverse_2x2(pp11, pp12, pp22)
        f11 = trace.p11[:, k] * a_s
        f12 = trace.p12[:, k] * a_w
        f21 = trace.p12[:, k] * a_s
        f22 = trace.p22[:, k] * a_w
        g11 = f11 * i11 + f12 * i12
        g12 = f11 * i12 + f12 * i22
        g21 = f21 * i11 + f22 * i12
        g22 = f21 * i12 + f22 * i22
        dm1 = out.m1[:, k + 1] - pm1
        dm2 = out.m2[:, k + 1] - pm2
        out.m1[:, k] = trace.m1[:, k] + g11 * dm1 + g12 * dm2
        out.m2[:, k] = trace.m2[:, k] + g21 * dm1 + g22 * dm2
        d11 = out.p11[:, k + 1] - pp11
        d12 = out.p12[:, k + 1] - pp12
        d22 = out.p22[:, k + 1] - pp22
        out.p11[:, k] = (trace.p11[:, k] + g11 * g11 * d11
                         + 2.0 * g11 * g12 * d12 + g12 * g12 * d22)
        out.p12[:, k] = (trace.p12[:, k] + g11 * g21 * d11
                         + (g11 * g22 + g12 * g21) * d12
                         + g12 * g22 * d22)
        out.p22[:, k] = (trace.p22[:, k] + g21 * g21 * d11
                         + 2.0 * g21 * g22 * d12 + g22 * g22 * d22)
    return out


def per_sample_filter(z, gain, offset, r, dynamics_args, initial=None):
    """The filter as a per-sample ``kalman_update(kalman_predict(...))``
    loop: the oracle that :func:`kalman_filter_batch` must match bit for
    bit."""
    n, t = z.shape
    state = initial if initial is not None else KalmanState.zeros(n)
    out = KalmanTrace.empty(n, t)
    for k in range(t):
        state = kalman_update(kalman_predict(state, *dynamics_args),
                              z[:, k], gain[:, k], offset[:, k], r[:, k])
        for name in ("m1", "m2", "p11", "p12", "p22"):
            getattr(out, name)[:, k] = getattr(state, name)
    return out


class TestFilter:
    def test_batch_matches_scalar_reference(self):
        _, z, params = simulate()
        batch, scalar = run_both(z, params)
        for name in ("m1", "m2", "p11", "p12", "p22"):
            np.testing.assert_allclose(
                getattr(batch, name), getattr(scalar, name),
                rtol=0.0, atol=1e-9, err_msg=name)

    def test_filter_beats_raw_inversion(self):
        truth, z, params = simulate()
        trace, _ = run_both(z, params)
        raw = (z - params["offset"]) / params["gain"]
        filter_rmse = np.sqrt(np.mean((trace.m1 - truth) ** 2))
        raw_rmse = np.sqrt(np.mean((raw - truth) ** 2))
        assert filter_rmse < 0.8 * raw_rmse

    def test_variance_converges_and_covers(self):
        truth, z, params = simulate(n_channels=8, n_samples=2000)
        trace, _ = run_both(z, params)
        # Steady-state posterior variance: positive, below the prior
        # stationary variance, and calibrated (95 % band covers ~95 %).
        stationary = params["q_signal"] / (1.0 - params["a_signal"] ** 2)
        tail = trace.p11[:, 100:]
        assert np.all(tail > 0)
        assert np.all(tail < stationary)
        band = 1.96 * np.sqrt(trace.p11)
        coverage = np.mean(np.abs(trace.m1 - truth) <= band)
        assert 0.90 <= coverage <= 0.99

    def test_infinite_variance_sample_is_skipped(self):
        """A censored reading (r = inf) must leave the state at its
        prediction — no information, no update."""
        _, z, params = simulate(n_channels=2, n_samples=5)
        r = np.full_like(z, params["r"][0])
        r[:, 2] = np.inf
        trace = kalman_filter_batch(
            z, params["gain"], params["offset"], r,
            params["a_signal"], params["q_signal"],
            params["a_wander"], params["q_wander"])
        predicted = predictions(trace, *dynamics(params))
        np.testing.assert_array_equal(trace.m1[:, 2], predicted.m1[:, 1])
        np.testing.assert_array_equal(trace.p11[:, 2],
                                      predicted.p11[:, 1])

    def test_derived_predictions_are_the_filters_own(self):
        """The smoother's derived prediction of sample k + 1 is exactly
        the filter's: one censored step (r = inf, pure prediction) from
        the posterior at k lands on it bit for bit."""
        _, z, params = simulate(n_channels=3, n_samples=40)
        a_signal = np.array([0.95, 0.8, 0.99])
        q_wander = np.array([0.01, 0.0, 0.002])
        args = (params["gain"], params["offset"], params["r"], a_signal,
                params["q_signal"], params["a_wander"], q_wander)
        trace = kalman_filter_batch(z, *args)
        predicted = predictions(trace, *args[3:])
        for k in range(z.shape[1] - 1):
            step = kalman_filter_batch(
                z[:, k + 1:k + 2], params["gain"][:, :1],
                params["offset"][:, :1], np.inf, *args[3:],
                initial=belief_at(trace, k))
            for name in ("m1", "m2", "p11", "p12", "p22"):
                np.testing.assert_array_equal(
                    getattr(predicted, name)[:, k],
                    getattr(step, name)[:, 0], err_msg=f"{name}@{k}")

    def test_zero_noise_model_stays_pinned(self):
        """With no process noise and an exact start the posterior stays
        a point mass at the deterministic trajectory."""
        z = np.full((1, 10), 3.0)
        trace = kalman_filter_batch(
            z, gain=np.ones((1, 10)), offset=np.zeros((1, 10)),
            r=np.array([1.0]), a_signal=0.9, q_signal=0.0,
            a_wander=0.9, q_wander=0.0)
        np.testing.assert_array_equal(trace.m1, 0.0)
        np.testing.assert_array_equal(trace.p11, 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="n_channels"):
            kalman_filter_batch(np.zeros(5), 1.0, 0.0, 1.0,
                                0.9, 1.0, 0.9, 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            kalman_filter_batch(np.zeros((1, 5)), 1.0, 0.0, -1.0,
                                0.9, 1.0, 0.9, 1.0)

    def test_initial_state_is_respected(self):
        _, z, params = simulate(n_channels=2, n_samples=3)
        start = KalmanState.zeros(2)
        start.m1[:] = 5.0
        trace = kalman_filter_batch(
            z, params["gain"], params["offset"], params["r"],
            params["a_signal"], params["q_signal"],
            params["a_wander"], params["q_wander"], initial=start)
        first = kalman_update(
            kalman_predict(start, *dynamics(params)), z[:, 0],
            params["gain"][:, 0], params["offset"][:, 0], params["r"])
        np.testing.assert_allclose(trace.m1[:, 0], first.m1,
                                   rtol=1e-12)
        assert np.all(start.m1 == 5.0)  # inputs never mutated

    @pytest.mark.parametrize("chunk", [1, 13, None])
    def test_matches_per_sample_oracle_in_chunks(self, chunk):
        """Censored runs (r = inf), a channel whose innovation variance
        is exactly 0 (r = q = 0 from an exact start), a non-zero
        initial belief, and chunks carried through the last column of
        each chunk's trace (``None``: the whole horizon)."""
        _, z, params = simulate(n_channels=4, n_samples=60)
        r = np.repeat(params["r"][:, None], z.shape[1], axis=1)
        r[:, 20:26] = np.inf
        r[1, 40:43] = np.inf
        r[3] = 0.0
        dyn = (np.array([0.95, 0.8, 0.99, 0.9]),
               np.array([0.3, 0.1, 0.05, 0.0]),
               np.array([0.99, 0.999, 0.9, 0.95]),
               np.array([0.01, 0.0, 0.002, 0.0]))
        start = KalmanState.zeros(4)
        start.m1[:] = [5.0, -1.0, 0.5, 2.0]
        start.m2[:] = [0.1, 0.2, -0.3, 0.4]
        start.p11[:3] = [0.3, 0.5, 0.1]
        start.p12[:3] = [0.05, -0.02, 0.0]
        start.p22[:3] = [0.2, 0.1, 0.4]
        expected = per_sample_filter(z, params["gain"], params["offset"],
                                     r, dyn, initial=start)
        # Channel 3 stays a point mass: every innovation variance is 0.
        np.testing.assert_array_equal(expected.p11[3], 0.0)
        np.testing.assert_array_equal(expected.p22[3], 0.0)
        step = chunk or z.shape[1]
        state, chunks = start, []
        for first in range(0, z.shape[1], step):
            block = slice(first, first + step)
            trace = kalman_filter_batch(
                z[:, block], params["gain"][:, block],
                params["offset"][:, block], r[:, block], *dyn,
                initial=state)
            chunks.append(trace)
            state = belief_at(trace)
        for name in ("m1", "m2", "p11", "p12", "p22"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(c, name) for c in chunks], axis=1),
                getattr(expected, name), err_msg=name)


class TestPredictUpdate:
    def test_predict_propagates_covariance(self):
        state = KalmanState.zeros(2)
        state.p11[:] = 4.0
        out = kalman_predict(state, 0.5, 1.0, 1.0, 0.0)
        np.testing.assert_allclose(out.p11, 0.25 * 4.0 + 1.0)
        np.testing.assert_allclose(out.p22, 0.0)

    def test_update_moves_toward_measurement(self):
        state = KalmanState.zeros(1)
        state.p11[:] = 1.0
        out = kalman_update(state, np.array([2.0]), 1.0, 0.0, 1.0)
        assert 0.0 < out.m1[0] < 2.0
        assert out.p11[0] < 1.0


class TestSmoother:
    def test_batch_matches_scalar_reference(self):
        _, z, params = simulate()
        batch_trace, scalar_trace = run_both(z, params)
        batch = rts_smoother_batch(batch_trace, *dynamics(params))
        scalar = rts_smoother_scalar(scalar_trace, *dynamics(params))
        for name in ("m1", "m2", "p11", "p12", "p22"):
            np.testing.assert_allclose(
                getattr(batch, name), getattr(scalar, name),
                rtol=0.0, atol=1e-9, err_msg=name)

    def test_smoothing_reduces_variance_and_error(self):
        truth, z, params = simulate(n_channels=6, n_samples=1000)
        trace, _ = run_both(z, params)
        smoothed = rts_smoother_batch(trace, *dynamics(params))
        interior = slice(10, -10)
        assert np.all(smoothed.p11[:, interior]
                      <= trace.p11[:, interior] + 1e-12)
        filter_rmse = np.sqrt(np.mean((trace.m1 - truth) ** 2))
        smooth_rmse = np.sqrt(np.mean((smoothed.m1 - truth) ** 2))
        assert smooth_rmse < filter_rmse

    def test_last_sample_equals_filter(self):
        _, z, params = simulate(n_samples=50)
        trace, _ = run_both(z, params)
        smoothed = rts_smoother_batch(trace, *dynamics(params))
        np.testing.assert_array_equal(smoothed.m1[:, -1],
                                      trace.m1[:, -1])

    @pytest.mark.parametrize("n_channels, n_samples, censored", [
        pytest.param(4, 1, (), id="1"),
        pytest.param(4, 2, (), id="2"),
        pytest.param(4, 300, (), id="300"),
        pytest.param(32, 864, ((1, 100, 130), (3, 500, 560)),
                     id="32x864-drifting-censored"),
        # Trace lengths around the smoother's slab: one slab short of
        # its last step, a short slab, one full slab, a full slab plus a
        # one-step slab, two full slabs.
        *(pytest.param(8, n_samples, CENSORED_ACROSS_SLAB,
                       id=f"8x{label}-drifting-censored")
          for label, n_samples in (
              ("slab-1", SLAB - 1), ("slab", SLAB), ("slab+1", SLAB + 1),
              ("slab+2", SLAB + 2), ("2slab+1", 2 * SLAB + 1))),
    ])
    def test_hoisted_gains_match_per_sample_oracle(self, n_channels,
                                                   n_samples, censored):
        """Per-channel coefficients, and one channel in four whose
        wander carries no noise so its predicted covariance is singular
        and the diagonal fallback of the inverse is taken; the drifting
        cohorts add a time-varying gain and censored (r = inf) runs,
        each ``(row step, first sample, stop sample)``."""
        _, z, params = simulate(n_channels=n_channels, n_samples=n_samples)
        a_signal = np.resize([0.95, 0.8, 0.99, 0.95], n_channels)
        a_wander = np.resize([0.99, 0.999, 0.9, 0.99], n_channels)
        q_wander = np.resize([0.01, 0.0, 0.002, 0.05], n_channels)
        gain = params["gain"]
        r = np.repeat(params["r"][:, None], n_samples, axis=1)
        if censored:
            gain = gain * (1.0 + 0.3 * np.sin(
                np.linspace(0.0, 6.0, n_samples)
                + np.arange(n_channels)[:, None]))
            for step, first, stop in censored:
                r[::step, first:stop] = np.inf
        trace = kalman_filter_batch(
            z, gain, params["offset"], r, a_signal,
            params["q_signal"], a_wander, q_wander)
        # Channel 1's predicted wander variance is identically zero.
        np.testing.assert_array_equal(
            trace.p22[1] * (a_wander[1] * a_wander[1]) + q_wander[1], 0.0)
        dyn = (a_signal, params["q_signal"], a_wander, q_wander)
        smoothed = rts_smoother_batch(trace, *dyn)
        expected = per_sample_rts(trace, *dyn)
        scalar = rts_smoother_scalar(trace, *dyn)
        for name in ("m1", "m2", "p11", "p12", "p22"):
            np.testing.assert_array_equal(
                getattr(smoothed, name), getattr(expected, name),
                err_msg=name)
            np.testing.assert_allclose(
                getattr(scalar, name), getattr(expected, name),
                rtol=0.0, atol=1e-9, err_msg=name)

    def test_singular_wander_block_is_handled(self):
        """q_wander = 0 keeps the wander covariance identically zero;
        the smoother must fall back to the signal block instead of
        dividing by a zero determinant."""
        _, z, params = simulate(n_channels=2, n_samples=60,
                                sigma_wander=0.0)
        trace, _ = run_both(z, params)
        smoothed = rts_smoother_batch(trace, *dynamics(params))
        assert np.all(np.isfinite(smoothed.m1))
        assert np.all(np.isfinite(smoothed.p11))
        np.testing.assert_array_equal(smoothed.m2, 0.0)
