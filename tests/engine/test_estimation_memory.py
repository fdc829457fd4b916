"""Peak memory of an estimation job and of its RTS smoother, per reading.

``tracemalloc`` sees every NumPy buffer, so for one shape the peaks
repeat from run to run.  The shape is the served ``jobs`` one: 32
wearers x 72 h at 5 min (27 648 readings), smoothing on, one chunk
spanning the run.  Working slab by slab (``RTS_SLAB_STEPS``), the
smoother peaks near 69 B per reading and the job near 206 B.  A
whole-horizon ``(n_samples - 1, 6, 5, n_channels)`` coefficient block is
240 B per reading on its own: with one, they read 424 and 517 B, and
both gates fail.
"""

import gc
import tracemalloc

import pytest

from repro.engine.core import execute, kernels_for, walk_segments
from repro.engine.estimation import EstimationPlan
from repro.engine.monitor import MonitorPlan, glucose_cohort
from repro.inference.kalman import rts_smoother_batch

SMOOTHER_MAX_B_PER_READING = 150
JOB_MAX_B_PER_READING = 240


@pytest.fixture(scope="module")
def plan():
    return EstimationPlan(monitor=MonitorPlan(
        channels=glucose_cohort(32), duration_h=72.0,
        sample_period_s=300.0, seed=5))


def peak_per_reading(plan, run) -> float:
    """``tracemalloc``'s peak while ``run()`` runs, per plan reading."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (plan.n_channels * plan.n_samples)


def test_smoother_peak_per_reading(plan):
    kernels = kernels_for("estimation")
    state = kernels.init_state(plan)
    walk_segments(kernels, plan, state, kernels.compile(plan), 0,
                  plan.n_samples, plan.monitor.chunk_samples)
    model = state.model
    peak = peak_per_reading(plan, lambda: rts_smoother_batch(
        state.trace, model.a_signal, model.q_signal, model.a_wander,
        model.q_wander))
    assert peak <= SMOOTHER_MAX_B_PER_READING, peak


def test_job_peak_per_reading(plan):
    kernels = kernels_for("estimation")
    execute(kernels, plan)       # first-call caches stay out of the peak
    peak = peak_per_reading(plan, lambda: execute(kernels, plan))
    assert peak <= JOB_MAX_B_PER_READING, peak
