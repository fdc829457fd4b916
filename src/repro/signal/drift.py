"""Baseline drift: estimation, correction, and stochastic wander kernels.

Long-term monitoring (the paper's chronic-patient scenario) accumulates
baseline drift from reference-electrode wander, enzyme decay and electrode
fouling.  Deterministic linear drift is estimated on blank segments and
removed before quantification; the slow *random* component of the
reference wander is modeled as an Ornstein-Uhlenbeck (OU) process.

Every routine exists in two forms, following the engine convention:

* a **batch kernel** operating on ``(n_channels, n_samples)`` arrays —
  what :mod:`repro.engine.monitor` consumes while streaming a cohort
  through wear-time;
* a **scalar/1-D wrapper** preserving the historical API.

The stochastic kernel honors the library's reproducibility contract: it
only draws from explicitly passed generators (one per channel) or from
the shared seedable stream of :mod:`repro.rng` — never from fresh OS
entropy — so a run seeded via :func:`repro.rng.set_global_seed` replays
bit-for-bit.  Draws are consumed strictly sequentially per channel, which
makes chunked streaming invariant to chunk size: advancing a channel in
one 10000-sample call or in ten 1000-sample calls produces the same
trajectory.

The OU recursion itself is a one-pole IIR filter, so it runs as one
:func:`scipy.signal.lfilter` pass per distinct correlation time (a single
pass for a uniform cohort) instead of a Python loop over samples.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from repro.rng import get_rng


def estimate_drift_rate_batch(time_s: np.ndarray,
                              y: np.ndarray) -> np.ndarray:
    """Least-squares linear drift rate per channel [units of y per second].

    Args:
        time_s: shared timestamps, shape ``(n_samples,)``.
        y: traces, shape ``(n_channels, n_samples)``.

    Returns:
        Drift slopes, shape ``(n_channels,)``.
    """
    time_s = np.asarray(time_s, dtype=float)
    y = np.asarray(y, dtype=float)
    if time_s.ndim != 1:
        raise ValueError("time axis must be one-dimensional")
    if y.ndim != 2 or y.shape[1] != time_s.size:
        raise ValueError("traces must be (n_channels, n_samples) on the "
                         "shared time grid")
    if time_s.size < 2:
        raise ValueError("need at least two samples")
    if float(np.ptp(time_s)) == 0.0:
        raise ValueError("time axis has zero span")
    # Closed-form simple-regression slope, vectorized over channels.
    t_centered = time_s - np.mean(time_s)
    denominator = float(np.sum(t_centered ** 2))
    return (y - np.mean(y, axis=1, keepdims=True)) @ t_centered / denominator


def estimate_drift_rate(time_s: np.ndarray, y: np.ndarray) -> float:
    """Least-squares linear drift rate [units of y per second].

    Thin single-channel wrapper over :func:`estimate_drift_rate_batch`.
    """
    time_s = np.asarray(time_s, dtype=float)
    y = np.asarray(y, dtype=float)
    if time_s.shape != y.shape:
        raise ValueError("time and trace must share one shape")
    return float(estimate_drift_rate_batch(time_s, y[None, :])[0])


def correct_linear_drift_batch(time_s: np.ndarray,
                               y: np.ndarray,
                               drift_rate_per_s: np.ndarray,
                               anchor_time_s: float | None = None,
                               ) -> np.ndarray:
    """Remove per-channel linear drifts from a batch of traces.

    Args:
        time_s: shared timestamps, shape ``(n_samples,)``.
        y: traces, shape ``(n_channels, n_samples)``.
        drift_rate_per_s: one slope per channel, shape ``(n_channels,)``.
        anchor_time_s: time at which the correction is zero (defaults to
            the first sample, preserving the initial readings).

    Returns:
        Corrected traces, shape ``(n_channels, n_samples)``.
    """
    time_s = np.asarray(time_s, dtype=float)
    y = np.asarray(y, dtype=float)
    rates = np.atleast_1d(np.asarray(drift_rate_per_s, dtype=float))
    if time_s.ndim != 1:
        raise ValueError("time axis must be one-dimensional")
    if y.ndim != 2 or y.shape[1] != time_s.size:
        raise ValueError("traces must be (n_channels, n_samples) on the "
                         "shared time grid")
    if rates.shape != (y.shape[0],):
        raise ValueError(
            f"need one drift rate per channel: {rates.shape} != "
            f"({y.shape[0]},)")
    anchor = float(time_s[0]) if anchor_time_s is None else anchor_time_s
    return y - rates[:, None] * (time_s - anchor)[None, :]


def correct_linear_drift(time_s: np.ndarray,
                         y: np.ndarray,
                         drift_rate_per_s: float,
                         anchor_time_s: float | None = None) -> np.ndarray:
    """Remove a known linear drift from a trace.

    Thin single-channel wrapper over :func:`correct_linear_drift_batch`.

    Args:
        time_s: timestamps.
        y: trace.
        drift_rate_per_s: drift slope to remove.
        anchor_time_s: time at which the correction is zero (defaults to the
            first sample, preserving the initial reading).
    """
    time_s = np.asarray(time_s, dtype=float)
    y = np.asarray(y, dtype=float)
    if time_s.shape != y.shape:
        raise ValueError("time and trace must share one shape")
    return correct_linear_drift_batch(
        time_s, y[None, :], np.array([drift_rate_per_s]), anchor_time_s)[0]


def ou_process_batch(n_samples: int,
                     dt_s: float,
                     tau_s: np.ndarray | float,
                     sigma: np.ndarray | float,
                     x0: np.ndarray,
                     rngs: "list[np.random.Generator] | None" = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Advance per-channel Ornstein-Uhlenbeck processes by ``n_samples``.

    The shared stochastic kernel of the streaming monitor: baseline
    wander *and* the random component of physiological concentration
    trajectories are both mean-reverting noise,

    ``x[k+1] = a * x[k] + sigma * sqrt(1 - a^2) * z[k]``,  ``a = exp(-dt/tau)``

    which has stationary standard deviation ``sigma`` and correlation
    time ``tau``.  The recursion is exact for any step size (no Euler
    error), so chunked streaming reproduces a single long call exactly
    as long as ``x0`` carries the state across chunk boundaries and each
    channel keeps its own generator.

    The recursion runs as one ``lfilter([1], [1, -a], u, zi=a * x0)``
    pass over the drive ``u = sigma * sqrt(1 - a^2) * z`` for each
    distinct ``a`` among the channels.  That is bit-identical to the
    per-sample loop ``x = a * x + u[k]``: the transposed direct-form
    step of lfilter computes ``u[k] + (0 * u[k-1] + a * x[k-1])``, and
    ``a * x[k-1]`` is rounded once either way, so both forms produce the
    same IEEE sums.

    Args:
        n_samples: samples to generate per channel.
        dt_s: sample period [s].
        tau_s: correlation time per channel [s] (scalar broadcasts);
            ``inf`` turns the channel into a frozen offset.
        sigma: stationary standard deviation per channel (scalar
            broadcasts); 0 disables the noise.
        x0: state entering the chunk, shape ``(n_channels,)`` — the last
            sample of the previous chunk, or the draw-free initial value.
        rngs: one generator per channel; ``None`` draws every channel
            from the shared seedable stream (:func:`repro.rng.get_rng`),
            which is reproducible under ``set_global_seed`` but not
            chunk-invariant (use per-channel generators for streaming).

    Returns:
        ``(values, state)``: the ``(n_channels, n_samples)`` process
        values and the ``(n_channels,)`` state to pass as ``x0`` of the
        next chunk (``values[:, -1]``, copied).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1:
        raise ValueError("x0 must be one state value per channel")
    n_channels = x0.size
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if dt_s <= 0:
        raise ValueError("sample period must be > 0")
    tau = np.broadcast_to(np.asarray(tau_s, dtype=float), (n_channels,))
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (n_channels,))
    if not np.all(tau > 0):
        raise ValueError("correlation time must be > 0")
    if np.any(sig < 0):
        raise ValueError("sigma must be >= 0")

    a = np.exp(-dt_s / tau)
    innovation_scale = sig * np.sqrt(1.0 - a ** 2)
    if rngs is None:
        shared = get_rng(None)
        shocks = shared.standard_normal((n_channels, n_samples))
    else:
        if len(rngs) != n_channels:
            raise ValueError(
                f"need one generator per channel: {len(rngs)} != "
                f"{n_channels}")
        shocks = np.stack([rng.standard_normal(n_samples) for rng in rngs])

    drive = innovation_scale[:, None] * shocks
    zi = (a * x0)[:, None]
    coefficients = np.unique(a)
    if coefficients.size == 1:
        values = lfilter([1.0], [1.0, -coefficients[0]], drive, axis=1,
                         zi=zi)[0]
    else:
        values = np.empty_like(drive)
        for coefficient in coefficients:
            rows = a == coefficient
            values[rows] = lfilter([1.0], [1.0, -coefficient], drive[rows],
                                   axis=1, zi=zi[rows])[0]
    return values, values[:, -1].copy()
