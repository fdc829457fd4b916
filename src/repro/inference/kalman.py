"""Batch Kalman filter and RTS smoother for sensor-current streams.

The estimation core of :mod:`repro.inference`: a two-state
linear-Gaussian model per channel, vectorized across the cohort.  State
``x_k = [d_k, w_k]`` carries the *signal deviation* (the concentration's
departure from its deterministic trajectory, or the concentration itself
for random-walk dynamics) and the *baseline wander* (the slow additive
current drift of the reference electrode):

.. code-block:: text

    d_k = a_d d_{k-1} + eps_k,   eps_k ~ N(0, q_d)
    w_k = a_w w_{k-1} + eta_k,   eta_k ~ N(0, q_w)
    z_k = offset_k + gain_k d_k + w_k + v_k,   v_k ~ N(0, r_k)

which is exactly the structure the streaming engines *generate*: OU
physiological noise and OU wander (:func:`repro.signal.drift.ou_process_batch`
uses the same ``a = exp(-dt/tau)`` recursion), a time-varying observation
gain (calibrated slope decayed by the :class:`~repro.core.longterm.DriftBudget`),
a known deterministic offset (faradaic response at the trajectory mean
plus baseline drift) and white measurement noise (chain noise floor plus
the ADC quantization floor).  :mod:`repro.inference.observation` builds
these arrays straight from a :class:`~repro.engine.monitor.MonitorPlan`,
so the filter is consistent-by-construction with the simulator.

Execution model mirrors the engines: the recursion is inherently causal,
so the batch path advances all channels one sample at a time — a
handful of NumPy calls per sample on one stacked ``(5, n_channels)``
state ``[m1, m2, p11, p12, p22]`` instead of one Python iteration per
(channel, sample) pair.  The filter stores only its posterior moments;
the smoother's one-step predictions and gains need no recursion, so
:func:`rts_smoother_batch` derives them from that trace for the whole
time axis in one pass and folds them into one coefficient block per
step, leaving three NumPy calls per back-step.  Both batch passes form
every product and sum of the per-sample expressions in the same order,
so they are bit-identical to per-sample loops.  The scalar reference
(:func:`kalman_filter_scalar` / :func:`rts_smoother_scalar`) replays the
identical arithmetic with Python floats, channel by channel, and is
gated bit-identical (<= 1e-9) by the execution-core contract suite
(``tests/engine/test_core_contract.py``) with a >= 5x speedup floor in
``benchmarks/bench_core.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class KalmanState:
    """Gaussian belief over the two-state model, one entry per channel.

    Attributes:
        m1 / m2: posterior means of signal deviation and wander,
            shape ``(n_channels,)``.
        p11 / p12 / p22: the symmetric 2x2 posterior covariance entries,
            shape ``(n_channels,)``.
    """

    m1: np.ndarray
    m2: np.ndarray
    p11: np.ndarray
    p12: np.ndarray
    p22: np.ndarray

    @classmethod
    def zeros(cls, n_channels: int) -> "KalmanState":
        """The exactly-known initial state of the streaming engines.

        Both OU processes start from state 0 with zero uncertainty
        (the simulators initialize ``trajectory_state = wander_state =
        0``), so the filter's prior is a point mass at the origin —
        uncertainty enters only through the process noise.
        """
        if n_channels < 1:
            raise ValueError("need at least one channel")
        return cls(*(np.zeros(n_channels) for _ in range(5)))

    @classmethod
    def from_trace(cls, trace: "KalmanTrace",
                   index: int = -1) -> "KalmanState":
        """The filtered belief at one sample of a trace.

        The chunk-carry constructor: feeding the state at a chunk's
        last sample back into :func:`kalman_filter_batch` as
        ``initial`` continues the recursion bit-identically to one
        uninterrupted pass — the property incremental serving
        (:mod:`repro.serve`) is built on.

        Args:
            trace: a forward-pass :class:`KalmanTrace`.
            index: sample index to extract (default: the last).
        """
        return cls(trace.m1[:, index].copy(), trace.m2[:, index].copy(),
                   trace.p11[:, index].copy(),
                   trace.p12[:, index].copy(),
                   trace.p22[:, index].copy())


def kalman_predict(state: KalmanState,
                   a_signal: "np.ndarray | float",
                   q_signal: "np.ndarray | float",
                   a_wander: "np.ndarray | float",
                   q_wander: "np.ndarray | float") -> KalmanState:
    """One time-update through the diagonal transition ``diag(a_d, a_w)``.

    Args:
        state: posterior after the previous sample.
        a_signal / a_wander: per-channel AR(1) coefficients
            (``exp(-dt/tau)`` for OU dynamics, ``1.0`` for a random
            walk); scalars broadcast.
        q_signal / q_wander: per-step innovation variances; scalars
            broadcast.

    Returns:
        The predicted (prior) state for the next sample.
    """
    return KalmanState(
        m1=a_signal * state.m1,
        m2=a_wander * state.m2,
        p11=a_signal * a_signal * state.p11 + q_signal,
        p12=a_signal * a_wander * state.p12,
        p22=a_wander * a_wander * state.p22 + q_wander,
    )


def kalman_update(state: KalmanState,
                  z: np.ndarray,
                  gain: "np.ndarray | float",
                  offset: "np.ndarray | float",
                  r: "np.ndarray | float") -> KalmanState:
    """One measurement update with observation row ``[gain, 1]``.

    The measurement model is ``z = offset + gain * d + w + v`` with
    ``v ~ N(0, r)``.  Channels whose innovation variance is not positive
    (a fully deterministic, noise-free configuration) keep their
    predicted state instead of dividing by zero.

    Args:
        state: the *predicted* state for this sample
            (:func:`kalman_predict` output).
        z: measured currents [A], ``(n_channels,)``.
        gain: observation gains [A per unit signal]; scalars broadcast.
        offset: known deterministic observation offsets [A].
        r: measurement noise variances [A^2]; scalars broadcast.

    Returns:
        The filtered (posterior) state at this sample.
    """
    z = np.asarray(z, dtype=float)
    u1 = gain * state.p11 + state.p12          # (P H^T) row 1
    u2 = gain * state.p12 + state.p22          # (P H^T) row 2
    s = gain * u1 + u2 + r                     # innovation variance
    s = np.broadcast_to(np.asarray(s, dtype=float), z.shape)
    residual = z - (offset + gain * state.m1 + state.m2)
    k1 = np.zeros_like(z)
    k2 = np.zeros_like(z)
    positive = s > 0
    np.divide(np.broadcast_to(u1, z.shape), s, out=k1, where=positive)
    np.divide(np.broadcast_to(u2, z.shape), s, out=k2, where=positive)
    return KalmanState(
        m1=state.m1 + k1 * residual,
        m2=state.m2 + k2 * residual,
        p11=state.p11 - k1 * u1,
        p12=state.p12 - k1 * u2,
        p22=state.p22 - k2 * u2,
    )


@dataclass
class KalmanTrace:
    """Per-sample moments of a filter or smoother pass.

    All arrays are ``(n_channels, n_samples)``.  The filter stores only
    its posterior; the smoother derives the one-step predictions it
    needs from it (:func:`_predictions`).

    Attributes:
        m1 / m2: posterior means (signal deviation, wander).
        p11 / p12 / p22: posterior covariances.
    """

    m1: np.ndarray
    m2: np.ndarray
    p11: np.ndarray
    p12: np.ndarray
    p22: np.ndarray

    @classmethod
    def empty(cls, n_channels: int, n_samples: int) -> "KalmanTrace":
        """An uninitialized trace of the given shape."""
        return cls(*(np.empty((n_channels, n_samples)) for _ in range(5)))

    def transposed(self) -> "KalmanTrace":
        """The same moments with the axes swapped, C-contiguous
        (time-major: one contiguous row per step)."""
        return KalmanTrace(*(np.ascontiguousarray(moment.T)
                             for moment in _moments(self)))


def _moments(belief: "KalmanState | KalmanTrace") -> tuple:
    """The five moments in stacking order ``m1, m2, p11, p12, p22``."""
    return belief.m1, belief.m2, belief.p11, belief.p12, belief.p22


def _prepare(z, gain, offset, r, a_signal, q_signal, a_wander, q_wander):
    """Validate and broadcast every filter input to its canonical shape."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("measurements must be (n_channels, n_samples)")
    n, t = z.shape
    if t < 1:
        raise ValueError("need at least one sample")
    gain = np.broadcast_to(np.asarray(gain, dtype=float), (n, t))
    offset = np.broadcast_to(np.asarray(offset, dtype=float), (n, t))
    r = np.asarray(r, dtype=float)
    if r.ndim <= 1:
        r = np.broadcast_to(r, (n,))[:, None]
    r = np.broadcast_to(r, (n, t))
    if np.any(r < 0):
        raise ValueError("measurement variance must be >= 0")
    return (z, gain, offset, r,
            *_dynamics(n, a_signal, q_signal, a_wander, q_wander))


def _dynamics(n, a_signal, q_signal, a_wander, q_wander):
    """Broadcast the per-channel dynamics to ``(n,)``; check ``q >= 0``."""
    params = []
    for name, p in (("a_signal", a_signal), ("q_signal", q_signal),
                    ("a_wander", a_wander), ("q_wander", q_wander)):
        p = np.broadcast_to(np.asarray(p, dtype=float), (n,))
        if name.startswith("q") and np.any(p < 0):
            raise ValueError(f"{name} must be >= 0")
        params.append(p)
    return params


def kalman_filter_batch(z: np.ndarray,
                        gain: np.ndarray,
                        offset: np.ndarray,
                        r: "np.ndarray | float",
                        a_signal: "np.ndarray | float",
                        q_signal: "np.ndarray | float",
                        a_wander: "np.ndarray | float",
                        q_wander: "np.ndarray | float",
                        initial: KalmanState | None = None) -> KalmanTrace:
    """Run the filter over a whole cohort block, vectorized by channel.

    Args:
        z: measured currents [A], ``(n_channels, n_samples)``.
        gain / offset: time-varying observation model, broadcastable to
            ``z``'s shape.
        r: measurement noise variance [A^2] — scalar, ``(n_channels,)``
            or ``(n_channels, n_samples)``.
        a_signal / q_signal / a_wander / q_wander: per-channel dynamics
            (scalars broadcast).
        initial: belief entering the first sample; defaults to the
            engines' exactly-known zero state
            (:meth:`KalmanState.zeros`).

    Returns:
        The :class:`KalmanTrace` of filtered moments.
    """
    z, gain, offset, r, a_s, q_s, a_w, q_w = _prepare(
        z, gain, offset, r, a_signal, q_signal, a_wander, q_wander)
    n, t = z.shape
    state = initial if initial is not None else KalmanState.zeros(n)
    # The hot loop inlines kalman_predict / kalman_update on one stacked
    # state x = [m1, m2, p11, p12, p22] (a copy: inputs are never
    # mutated) and reused buffers: the same float expressions, a handful
    # of NumPy calls per sample.  The composite transition factors are
    # formed once (a * a is a single deterministic product, so
    # precomputing it changes nothing), and the innovation variances go
    # to p11 and p22 alone.
    x = np.array(_moments(state), dtype=float)
    transition = np.stack([a_s, a_w, a_s * a_s, a_s * a_w, a_w * a_w])
    innovation = np.stack([q_s, q_w])
    gain, offset, r, z = (np.ascontiguousarray(a.T)
                          for a in (gain, offset, r, z))
    m1, m2 = x[0], x[1]
    means, variances, covariances = x[:2], x[2::2], x[2:]
    p11_p12, p12_p22 = x[2:4], x[3:]
    u = np.empty((2, n))                  # P H^T: rows u1, u2
    u1, u2 = u
    s = np.empty(n)                       # innovation variance
    positive = np.empty(n, dtype=bool)
    k = np.empty((2, n))                  # Kalman gains: rows k1, k2
    k1, k2 = k
    residual = np.empty(n)
    dm = np.empty((2, n))
    dp = np.empty((3, n))                 # k1 u1, k1 u2, k2 u2
    dp_k1, dp_k2 = dp[:2], dp[2]
    history = np.empty((t, 5, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(t):
            g = gain[step]
            # Predict.
            x *= transition
            variances += innovation
            # Update.
            np.multiply(p11_p12, g, out=u)
            u += p12_p22
            np.multiply(u1, g, out=s)
            s += u2
            s += r[step]
            np.greater(s, 0.0, out=positive)
            k.fill(0.0)
            np.divide(u, s, out=k, where=positive)
            np.multiply(m1, g, out=residual)
            residual += offset[step]
            residual += m2
            np.subtract(z[step], residual, out=residual)
            np.multiply(k, residual, out=dm)
            means += dm
            np.multiply(k1, u, out=dp_k1)
            np.multiply(k2, u2, out=dp_k2)
            covariances -= dp
            history[step] = x
    return KalmanTrace(*np.ascontiguousarray(history.transpose(1, 2, 0)))


def kalman_filter_scalar(z: np.ndarray,
                         gain: np.ndarray,
                         offset: np.ndarray,
                         r: "np.ndarray | float",
                         a_signal: "np.ndarray | float",
                         q_signal: "np.ndarray | float",
                         a_wander: "np.ndarray | float",
                         q_wander: "np.ndarray | float",
                         initial: KalmanState | None = None) -> KalmanTrace:
    """Per-channel scalar reference: one (channel, sample) at a time.

    The historical shape of an online estimator — a Python loop over
    every channel and sample through plain float arithmetic, applying
    exactly the formulas of :func:`kalman_predict` /
    :func:`kalman_update`.  Agrees with :func:`kalman_filter_batch` to
    floating-point reassociation (<= 1e-9, gated with the >= 5x speedup
    floor in ``benchmarks/bench_core.py``) — which is exactly why
    the vectorized path exists.
    """
    z, gain, offset, r, a_s, q_s, a_w, q_w = _prepare(
        z, gain, offset, r, a_signal, q_signal, a_wander, q_wander)
    n, t = z.shape
    trace = KalmanTrace.empty(n, t)
    start = initial if initial is not None else KalmanState.zeros(n)
    for i in range(n):
        m1, m2, p11, p12, p22 = (float(moment[i]) for moment in (
            start.m1, start.m2, start.p11, start.p12, start.p22))
        ai, qi = float(a_s[i]), float(q_s[i])
        aw, qw = float(a_w[i]), float(q_w[i])
        for k in range(t):
            # Predict.
            m1 = ai * m1
            m2 = aw * m2
            p11 = ai * ai * p11 + qi
            p12 = ai * aw * p12
            p22 = aw * aw * p22 + qw
            # Update.
            h = float(gain[i, k])
            u1 = h * p11 + p12
            u2 = h * p12 + p22
            s = h * u1 + u2 + float(r[i, k])
            if s > 0:
                k1 = u1 / s
                k2 = u2 / s
            else:
                k1 = k2 = 0.0
            residual = float(z[i, k]) - (float(offset[i, k]) + h * m1 + m2)
            m1 = m1 + k1 * residual
            m2 = m2 + k2 * residual
            p11 = p11 - k1 * u1
            p12 = p12 - k1 * u2
            p22 = p22 - k2 * u2
            trace.m1[i, k] = m1
            trace.m2[i, k] = m2
            trace.p11[i, k] = p11
            trace.p12[i, k] = p12
            trace.p22[i, k] = p22
    return trace


def _inverse_2x2(p11: np.ndarray, p12: np.ndarray, p22: np.ndarray):
    """Symmetric 2x2 inverses with a diagonal fallback for singular covs.

    A channel whose wander (or signal) process carries no noise keeps a
    rank-deficient predicted covariance; the smoother then falls back to
    inverting the positive diagonal blocks alone (the exact limit of the
    full inverse as the dead block's variance goes to zero).
    """
    det = p11 * p22 - p12 * p12
    ok = det > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        fallback1 = np.where(p11 > 0, 1.0 / p11, 0.0)
        fallback2 = np.where(p22 > 0, 1.0 / p22, 0.0)
        i11 = np.where(ok, p22 / det, fallback1)
        i12 = np.where(ok, -p12 / det, 0.0)
        i22 = np.where(ok, p11 / det, fallback2)
    return i11, i12, i22


def _predictions(filtered: KalmanTrace, a_s, q_s, a_w, q_w) -> KalmanTrace:
    """One-step predictions from a time-major filtered trace.

    The filter predicts in place on the posterior it just stored, so
    forming each prediction from the posterior at ``k`` with the
    filter's own expressions reproduces its predicted moments bit for
    bit.  Row ``k`` of the returned time-major trace predicts sample
    ``k + 1``.
    """
    return KalmanTrace(
        m1=filtered.m1[:-1] * a_s,
        m2=filtered.m2[:-1] * a_w,
        p11=filtered.p11[:-1] * (a_s * a_s) + q_s,
        p12=filtered.p12[:-1] * (a_s * a_w),
        p22=filtered.p22[:-1] * (a_w * a_w) + q_w,
    )


def _smoother_gains(filtered: KalmanTrace, predicted: KalmanTrace,
                    a_s: np.ndarray, a_w: np.ndarray):
    """RTS gains ``G[k] = P_f[k] A^T P_pred[k+1]^{-1}`` for every step.

    ``A = diag(a_s, a_w)``.  The gains depend on the forward trace alone,
    so they are formed for the whole time axis in one pass; each entry
    is the same float expression a per-sample loop would evaluate.

    Returns:
        ``(g11, g12, g21, g22)``, each time-major with ``n_samples - 1``
        rows; row ``k`` smooths sample ``k``.
    """
    i11, i12, i22 = _inverse_2x2(predicted.p11, predicted.p12,
                                 predicted.p22)
    f11 = filtered.p11[:-1] * a_s
    f12 = filtered.p12[:-1] * a_w
    f21 = filtered.p12[:-1] * a_s
    f22 = filtered.p22[:-1] * a_w
    return (f11 * i11 + f12 * i12, f11 * i12 + f12 * i22,
            f21 * i11 + f22 * i12, f21 * i12 + f22 * i22)


def _back_pass_coefficients(filtered: np.ndarray, gains) -> np.ndarray:
    """Each RTS back-step as a sum of six ``(5, n_channels)`` terms.

    Block ``k`` (shape ``(6, 5, n)``) holds the filtered state at ``k``
    in row 0 and, in rows 1-5, the coefficients that multiply the
    prediction errors ``dm1, dm2, d11, d12, d22`` in each smoothed
    moment, with zeros in the cross blocks.  Each coefficient is the
    product the per-sample update forms, in the same association, so
    scaling rows 1-5 by the errors and adding the six rows in order
    evaluates exactly the per-sample expressions.

    Args:
        filtered: time-major stacked filtered moments ``(t, 5, n)``.
        gains: ``(g11, g12, g21, g22)`` from :func:`_smoother_gains`.

    Returns:
        ``(t - 1, 6, 5, n)``; block ``k`` smooths sample ``k``.
    """
    g11, g12, g21, g22 = gains
    blocks = np.zeros((filtered.shape[0] - 1, 6) + filtered.shape[1:])
    blocks[:, 0] = filtered[:-1]
    for term, moment, coefficient in (
            (1, 0, g11), (2, 0, g12),
            (1, 1, g21), (2, 1, g22),
            (3, 2, g11 * g11), (4, 2, 2.0 * g11 * g12), (5, 2, g12 * g12),
            (3, 3, g11 * g21), (4, 3, g11 * g22 + g12 * g21),
            (5, 3, g12 * g22),
            (3, 4, g21 * g21), (4, 4, 2.0 * g21 * g22), (5, 4, g22 * g22)):
        blocks[:, term, moment] = coefficient
    return blocks


def rts_smoother_batch(trace: KalmanTrace,
                       a_signal: "np.ndarray | float",
                       q_signal: "np.ndarray | float",
                       a_wander: "np.ndarray | float",
                       q_wander: "np.ndarray | float") -> KalmanTrace:
    """Rauch-Tung-Striebel backward pass, vectorized by channel.

    Conditions every sample's belief on the *whole* record (the offline
    reconstruction the monitoring workload wants after a wear period),
    shrinking the posterior variance relative to the causal filter.
    The predictions and gains come from the forward trace alone and are
    computed for every sample at once (:func:`_back_pass_coefficients`);
    only the mean/covariance back-pass steps through time, three NumPy
    calls per step on the stacked ``(5, n_channels)`` moments.

    Args:
        trace: forward-pass output of :func:`kalman_filter_batch`.
        a_signal / q_signal / a_wander / q_wander: the dynamics the
            filter ran with, in the filter's order (scalars broadcast).

    Returns:
        The :class:`KalmanTrace` of smoothed moments.
    """
    n, t = trace.m1.shape
    a_s, q_s, a_w, q_w = _dynamics(n, a_signal, q_signal, a_wander,
                                   q_wander)
    # Time-major stacked moments: row k is the (5, n) state at sample k.
    out = np.stack([moment.T for moment in _moments(trace)], axis=1)
    filtered = KalmanTrace(*out.transpose(1, 0, 2))
    predicted = _predictions(filtered, a_s, q_s, a_w, q_w)
    coefficients = _back_pass_coefficients(
        out, _smoother_gains(filtered, predicted, a_s, a_w))
    predicted = np.stack(_moments(predicted), axis=1)
    errors = np.empty((5, 1, n))   # dm1, dm2, d11, d12, d22
    error_rows = errors[:, 0]
    for k in range(t - 2, -1, -1):   # the last sample is already smoothed
        terms = coefficients[k]
        np.subtract(out[k + 1], predicted[k], out=error_rows)
        terms[1:] *= errors
        np.add.reduce(terms, axis=0, out=out[k])
    return KalmanTrace(*np.ascontiguousarray(out.transpose(1, 2, 0)))


def rts_smoother_scalar(trace: KalmanTrace,
                        a_signal: "np.ndarray | float",
                        q_signal: "np.ndarray | float",
                        a_wander: "np.ndarray | float",
                        q_wander: "np.ndarray | float") -> KalmanTrace:
    """Per-channel scalar reference of the RTS backward pass.

    Same float-by-float arithmetic discipline as
    :func:`kalman_filter_scalar`, deriving each prediction inline from
    the previous sample's posterior; agrees with
    :func:`rts_smoother_batch` to <= 1e-9 (gated in
    ``benchmarks/bench_core.py``).
    """
    n, t = trace.m1.shape
    a_s, q_s, a_w, q_w = _dynamics(n, a_signal, q_signal, a_wander,
                                   q_wander)
    out = KalmanTrace.empty(n, t)
    for i in range(n):
        ai, qi = float(a_s[i]), float(q_s[i])
        aw, qw = float(a_w[i]), float(q_w[i])
        m1, m2, p11, p12, p22 = (float(moment[i, -1]) for moment in (
            trace.m1, trace.m2, trace.p11, trace.p12, trace.p22))
        out.m1[i, -1], out.m2[i, -1] = m1, m2
        out.p11[i, -1], out.p12[i, -1], out.p22[i, -1] = p11, p12, p22
        for k in range(t - 2, -1, -1):
            fm1, fm2 = float(trace.m1[i, k]), float(trace.m2[i, k])
            fp11 = float(trace.p11[i, k])
            fp12 = float(trace.p12[i, k])
            fp22 = float(trace.p22[i, k])
            # The filter's prediction of sample k + 1.
            pp11 = ai * ai * fp11 + qi
            pp12 = ai * aw * fp12
            pp22 = aw * aw * fp22 + qw
            det = pp11 * pp22 - pp12 * pp12
            if det > 0:
                i11 = pp22 / det
                i12 = -pp12 / det
                i22 = pp11 / det
            else:
                i11 = 1.0 / pp11 if pp11 > 0 else 0.0
                i12 = 0.0
                i22 = 1.0 / pp22 if pp22 > 0 else 0.0
            f11 = fp11 * ai
            f12 = fp12 * aw
            f21 = fp12 * ai
            f22 = fp22 * aw
            g11 = f11 * i11 + f12 * i12
            g12 = f11 * i12 + f12 * i22
            g21 = f21 * i11 + f22 * i12
            g22 = f21 * i12 + f22 * i22
            dm1 = m1 - ai * fm1
            dm2 = m2 - aw * fm2
            d11 = p11 - pp11
            d12 = p12 - pp12
            d22 = p22 - pp22
            m1 = fm1 + g11 * dm1 + g12 * dm2
            m2 = fm2 + g21 * dm1 + g22 * dm2
            p11 = (fp11 + g11 * g11 * d11
                   + 2.0 * g11 * g12 * d12 + g12 * g12 * d22)
            p12 = (fp12 + g11 * g21 * d11
                   + (g11 * g22 + g12 * g21) * d12 + g12 * g22 * d22)
            p22 = (fp22 + g21 * g21 * d11
                   + 2.0 * g21 * g22 * d12 + g22 * g22 * d22)
            out.m1[i, k], out.m2[i, k] = m1, m2
            out.p11[i, k], out.p12[i, k], out.p22[i, k] = p11, p12, p22
    return out
