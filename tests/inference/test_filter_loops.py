"""The filter's two production loops and its scalar reference agree bit
for bit.

:meth:`KalmanDynamics.filter` runs a per-channel loop in Python floats
below :data:`STACKED_MIN_CHANNELS` channels and the stacked NumPy loop
from there on.  Both are called directly here, so each runs at every
channel count, and both are held to the same bytes as
:func:`kalman_filter_scalar` over censored readings, noise-free
channels and non-zero initial beliefs.  An estimation plan on the
per-channel side gives the same bytes at every chunk size.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.core import execute
from repro.engine.estimation import (
    ESTIMATION_KERNELS,
    EstimationPlan,
)
from repro.engine.monitor import MonitorPlan, glucose_cohort
from repro.inference.kalman import (
    STACKED_MIN_CHANNELS,
    KalmanDynamics,
    KalmanState,
    KalmanTrace,
    kalman_filter_scalar,
)

MOMENTS = ("m1", "m2", "p11", "p12", "p22")


def _cohort(n: int, t: int, seed: int, censored: float, noise_free: float):
    """Observations, dynamics and an initial belief for ``n`` channels.

    A noise-free channel has no process or measurement noise and starts
    from an exact belief, so every innovation variance on it is 0.
    """
    rng = np.random.default_rng(seed)
    quiet = rng.random(n) < noise_free
    z = 3.0 * rng.standard_normal((n, t))
    gain = rng.uniform(0.5, 2.0, (n, t))
    offset = rng.standard_normal((n, t))
    r = rng.uniform(0.1, 2.0, (n, t))
    r[rng.random((n, t)) < censored] = np.inf
    r[quiet] = 0.0
    a_signal = rng.uniform(0.5, 1.0, n)
    a_wander = rng.uniform(0.5, 1.0, n)
    q_signal = np.where(quiet, 0.0, rng.uniform(0.0, 1.0, n))
    q_wander = np.where(quiet, 0.0, rng.uniform(0.0, 0.1, n))
    p11 = rng.uniform(0.0, 1.0, n)
    p22 = rng.uniform(0.0, 1.0, n)
    p12 = 0.5 * np.sqrt(p11 * p22) * rng.uniform(-1.0, 1.0, n)
    initial = KalmanState(
        m1=rng.standard_normal(n), m2=rng.standard_normal(n),
        p11=np.where(quiet, 0.0, p11), p12=np.where(quiet, 0.0, p12),
        p22=np.where(quiet, 0.0, p22))
    return (z, gain, offset, r), (a_signal, q_signal, a_wander,
                                  q_wander), initial


def _assert_same_bytes(actual: KalmanTrace, expected: KalmanTrace,
                       label: str) -> None:
    for name in MOMENTS:
        assert (getattr(actual, name).tobytes()
                == getattr(expected, name).tobytes()), f"{label}: {name}"


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), t=st.integers(1, 60),
       seed=st.integers(0, 2 ** 32 - 1),
       censored=st.sampled_from([0.0, 0.1, 0.5]),
       noise_free=st.sampled_from([0.0, 0.3, 1.0]))
@example(n=3, t=20, seed=5, censored=0.0, noise_free=1.0)
def test_both_loops_match_the_scalar_reference(n, t, seed, censored,
                                               noise_free):
    observations, dynamics, initial = _cohort(n, t, seed, censored,
                                              noise_free)
    before = [getattr(initial, name).copy() for name in MOMENTS]
    expected = kalman_filter_scalar(*observations, *dynamics,
                                    initial=initial)
    prepared = KalmanDynamics.prepare(n, *dynamics)
    for loop in (prepared.filter_channels, prepared.filter_stacked):
        out = KalmanTrace.empty(n, t)
        loop(*observations, initial, out)
        _assert_same_bytes(out, expected, loop.__name__)
    _assert_same_bytes(prepared.filter(*observations, initial), expected,
                       "filter")
    for name, moment in zip(MOMENTS, before):
        assert getattr(initial, name).tobytes() == moment.tobytes()


def test_filter_fills_views_of_a_longer_trace():
    """``out`` may be :meth:`KalmanTrace.columns` of a longer trace,
    and ``initial`` views of the column before them, as an estimation
    chunk passes them."""
    observations, dynamics, initial = _cohort(4, 30, 9, 0.1, 0.0)
    prepared = KalmanDynamics.prepare(4, *dynamics)
    whole = prepared.filter(*observations, initial)
    trace = KalmanTrace.empty(4, 30)
    prepared.filter(*(a[:, :11] for a in observations), initial,
                    out=trace.columns(0, 11))
    prepared.filter(*(a[:, 11:] for a in observations),
                    KalmanState(*(getattr(trace, name)[:, 10]
                                  for name in MOMENTS)),
                    out=trace.columns(11, 30))
    _assert_same_bytes(trace, whole, "chunked")


def _four_wearers(chunk_samples: int) -> EstimationPlan:
    return EstimationPlan(monitor=MonitorPlan(
        channels=glucose_cohort(4), duration_h=12.0,
        sample_period_s=300.0, chunk_samples=chunk_samples, seed=17))


@pytest.mark.parametrize("chunk_samples", [1, 7, 12])
def test_estimation_is_chunk_invariant(chunk_samples):
    """A 4-wearer estimation plan (the per-channel loop) gives the same
    bytes in chunks of 1, 7 and 12 samples as in one chunk."""
    assert 4 < STACKED_MIN_CHANNELS
    whole = _four_wearers(144)
    assert whole.n_samples == 144
    expected = execute(ESTIMATION_KERNELS, whole)
    actual = execute(ESTIMATION_KERNELS, _four_wearers(chunk_samples))
    for field in ("filtered_concentration_molar", "filtered_std_molar",
                  "smoothed_concentration_molar", "smoothed_std_molar"):
        assert (getattr(actual, field).tobytes()
                == getattr(expected, field).tobytes()), field
