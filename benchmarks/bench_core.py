"""Bench: every registered workload through the shared speedup harness.

One loop replaces the four per-engine speedup gates: for each workload
registered on the execution core, the chunked executor is timed against
that workload's honest scalar baseline and gated on the floor named in
``FLOOR_ENV`` (5x by default, relaxed in CI).  The
whole sweep lands in one unified ``BENCH_core.json`` (workload ->
payload) so the perf trajectory of the whole execution core diffs as a
single file across PRs.

Baselines are chosen per workload to keep the claim honest:

* **calibration** — the pre-engine scalar pipeline (one full
  technique -> chain -> DSP pass per cell), not ``run_scalar``, whose
  single-cell batch calls would share the engine's kernel cache;
* **monitor** / **therapy** — the per-(channel, sample) scalar
  reference, i.e. ``run_scalar(workload, plan)``;
* **estimation** — scalar filter + smoother on precomputed currents
  (the wear simulation feeding both paths is identical and vectorized,
  so timing it would dilute the filter claim).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import BatchPlan
from repro.engine.core import (
    kernels_for,
    registered_workloads,
    run_scalar,
    run_workload,
)
from repro.inference.kalman import (
    kalman_filter_batch,
    kalman_filter_scalar,
    rts_smoother_batch,
    rts_smoother_scalar,
)
from repro.inference.observation import (
    monitor_observation_model,
    rail_censored_mask,
)
from repro.rng import spawn_generators

from harness import floor_from_env, measure_speedup

N_REPLICATES = 25

#: Environment variable holding each workload's speedup floor.
FLOOR_ENV = {
    "calibration": "ENGINE_SPEEDUP_FLOOR",
    "monitor": "MONITOR_SPEEDUP_FLOOR",
    "therapy": "THERAPY_SPEEDUP_FLOOR",
    "estimation": "INFERENCE_SPEEDUP_FLOOR",
}


def _calibration_bench(panel, historical_point):
    """Batched campaign vs. the historical per-point pipeline."""
    sensors, grids = panel
    plan = BatchPlan(sensors=sensors, concentrations_molar=grids,
                     replicates=N_REPLICATES, seed=7)
    rngs = spawn_generators(7, plan.n_cells)

    def slow():
        values = []
        flat = 0
        for sensor, grid in zip(sensors, grids):
            for concentration in grid:
                for __ in range(N_REPLICATES):
                    values.append(historical_point(
                        sensor, concentration, rngs[flat]))
                    flat += 1
        return np.array(values)

    return (lambda: run_workload("calibration", plan), slow,
            dict(n_cells=plan.n_cells))


def _streaming_bench(workload, plan):
    """Chunked executor vs. the per-(channel, sample) scalar loop."""
    n_channels = getattr(plan, "n_channels", None) or plan.n_patients
    extras = dict(n_channels=n_channels, n_samples=plan.n_samples,
                  n_readings=n_channels * plan.n_samples)
    return (lambda: run_workload(workload, plan),
            lambda: run_scalar(workload, plan), extras)


def _estimation_bench(plan):
    """Batch vs. scalar filter + smoother on precomputed currents."""
    monitor_result = run_workload("monitor", plan.monitor)
    model = monitor_observation_model(plan.monitor)
    censored = rail_censored_mask(
        [channel.sensor for channel in plan.monitor.channels],
        monitor_result.measured_current_a)
    r = np.where(censored, np.inf,
                 model.measurement_variance_a2[:, None])
    z = monitor_result.measured_current_a
    dynamics = (model.a_signal, model.q_signal,
                model.a_wander, model.q_wander)
    args = (model.gain_a_per_molar, model.offset_a, r, *dynamics)

    def fast():
        trace = kalman_filter_batch(z, *args)
        return rts_smoother_batch(trace, *dynamics)

    def slow():
        trace = kalman_filter_scalar(z, *args)
        return rts_smoother_scalar(trace, *dynamics)

    extras = dict(n_channels=plan.n_channels, n_samples=plan.n_samples,
                  n_readings=plan.n_channels * plan.n_samples)
    return fast, slow, extras


def test_registered_workload_speedups(bench_json, historical_point,
                                      calibration_panel,
                                      monitor_week_plan,
                                      therapy_course_plan,
                                      estimation_cohort_plan):
    """One gate for all workloads: each must beat its scalar baseline."""
    benches = {
        "calibration": lambda: _calibration_bench(calibration_panel,
                                                  historical_point),
        "monitor": lambda: _streaming_bench(
            "monitor", monitor_week_plan(keep_traces=False)),
        "therapy": lambda: _streaming_bench(
            "therapy", therapy_course_plan(keep_traces=False)),
        "estimation": lambda: _estimation_bench(estimation_cohort_plan()),
    }
    unified = {}
    for workload in registered_workloads():
        if workload not in benches:
            pytest.fail(f"registered workload {workload!r} has no bench "
                        "spec: add one to benchmarks/bench_core.py")
        fast, slow, extras = benches[workload]()
        payload = measure_speedup(
            fast, slow, floor_from_env(FLOOR_ENV[workload]),
            extras=extras, scalar_repeats=1)
        unified[workload] = payload
        print(f"\n{workload}: scalar {payload['scalar_wall_s'] * 1e3:.0f}"
              f" ms, chunked {payload['batch_wall_s'] * 1e3:.1f} ms -> "
              f"{payload['speedup']:.1f}x (floor "
              f"{payload['speedup_floor']:.1f}x)")
    print(f"unified record -> {bench_json('core', **unified)}")
    below = {workload: payload["speedup"]
             for workload, payload in unified.items()
             if payload["speedup"] < payload["speedup_floor"]}
    assert not below, f"speedups below their floors: {below}"


def _loop_uninstrumented(kernels, plan):
    """Byte-for-byte replica of the executor's pre-telemetry loop.

    This is the honest baseline for the overhead gate: the exact
    compile -> init_state -> segment/chunk -> finalize sequence with no
    recorder lookup at all.  If :func:`repro.engine.core.executor.execute`
    ever grows per-chunk telemetry work on its disabled branch, the
    ratio against this loop catches it.
    """
    compiled = kernels.compile(plan)
    state = kernels.init_state(plan)
    for segment in compiled.segments:
        kernels.begin_segment(plan, state, segment)
        for start in range(segment.start, segment.stop,
                           compiled.chunk_samples):
            stop = min(start + compiled.chunk_samples, segment.stop)
            kernels.run_chunk(plan, state, segment, start, stop)
        kernels.end_segment(plan, state, segment)
    return kernels.finalize(plan, state)


def _interleaved_overhead(fn_a, fn_b, repeats):
    """Relative cost of B over A, sampled interleaved, plus best walls.

    Alternating A and B within every round means slow drift (thermal,
    another process waking up) hits both sides equally instead of
    biasing whichever ran second.  The overhead is the median over
    rounds of B's wall over A's in the same round: a burst of host load
    moves a few rounds, not the median, where it could move either
    side's minimum alone.

    Returns:
        ``(overhead, best_a_s, best_b_s)``.
    """
    walls_a, walls_b = [], []
    for __ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        walls_a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        walls_b.append(time.perf_counter() - t0)
    ratios = [b / a for a, b in zip(walls_a, walls_b)]
    return float(np.median(ratios)) - 1.0, min(walls_a), min(walls_b)


def _overhead_plan(monitor_week_plan):
    """The plan both overhead gates time: the bench cohort over four
    weeks in week-long chunks.  A one-week, one-chunk run (~4 ms) is
    short enough for host noise to exceed the 3 % ceilings; four chunks
    also weigh per-chunk costs against per-run ones."""
    return monitor_week_plan(duration_h=28 * 24.0, chunk_samples=2016,
                             keep_traces=False)


def test_disabled_telemetry_overhead(bench_json, monitor_week_plan):
    """The telemetry zero-cost gate: with the recorder disabled,
    ``execute()`` must match the raw uninstrumented loop to within
    ``TELEMETRY_OVERHEAD_CEILING`` (3 % by default, relaxed in CI).

    The delta is merged into ``BENCH_core.json`` under
    ``telemetry_overhead`` so the cost of the disabled branch is
    tracked across PRs alongside the workload speedups.
    """
    from repro.engine.core.executor import execute
    from repro.telemetry import NULL_METRICS, set_metrics_registry, set_recorder

    ceiling = float(os.environ.get("TELEMETRY_OVERHEAD_CEILING", "0.03"))
    kernels = kernels_for("monitor")
    plan = _overhead_plan(monitor_week_plan)
    previous = set_recorder(None)  # the disabled default, explicitly
    previous_registry = set_metrics_registry(NULL_METRICS)
    try:
        execute(kernels, plan)  # warm kernel caches for both paths
        _loop_uninstrumented(kernels, plan)
        overhead, raw_s, instrumented_s = _interleaved_overhead(
            lambda: _loop_uninstrumented(kernels, plan),
            lambda: execute(kernels, plan), repeats=40)
    finally:
        set_recorder(previous)
        set_metrics_registry(previous_registry)

    directory = Path(os.environ.get("BENCH_JSON_DIR",
                                    Path(__file__).resolve().parent))
    core_path = directory / "BENCH_core.json"
    merged = (json.loads(core_path.read_text())
              if core_path.is_file() else {})
    merged["telemetry_overhead"] = {
        "raw_wall_s": raw_s, "disabled_wall_s": instrumented_s,
        "overhead": overhead, "ceiling": ceiling}
    print(f"\ntelemetry off: best raw {raw_s * 1e3:.1f} ms, execute() "
          f"{instrumented_s * 1e3:.1f} ms; median ratio "
          f"{overhead * 100:+.2f}% "
          f"(ceiling {ceiling * 100:.0f}%) -> "
          f"{bench_json('core', **merged)}")
    assert overhead <= ceiling, (
        f"disabled-telemetry overhead {overhead * 100:.2f}% exceeds "
        f"ceiling {ceiling * 100:.0f}%")


def test_enabled_metrics_overhead(bench_json, monitor_week_plan):
    """The metrics cheap-when-on gate: with a live
    :class:`~repro.telemetry.MetricsRegistry` installed (recorder
    still disabled), ``execute()`` must stay within
    ``METRICS_OVERHEAD_CEILING`` (3 % by default, relaxed in CI) of
    the raw uninstrumented loop.

    This bounds the *enabled* cost — one ``perf_counter`` pair plus a
    histogram observe and two counter incs per chunk — which is the
    price every campaign worker and serving process pays when
    ``REPRO_METRICS=1``.  The delta lands in ``BENCH_core.json`` under
    ``metrics_overhead`` next to ``telemetry_overhead``.
    """
    from repro.engine.core.executor import execute
    from repro.telemetry import (
        MetricsRegistry,
        set_metrics_registry,
        set_recorder,
    )

    ceiling = float(os.environ.get("METRICS_OVERHEAD_CEILING", "0.03"))
    kernels = kernels_for("monitor")
    plan = _overhead_plan(monitor_week_plan)
    registry = MetricsRegistry()
    previous = set_recorder(None)
    previous_registry = set_metrics_registry(registry)
    try:
        execute(kernels, plan)  # warm kernel caches and series lookup
        _loop_uninstrumented(kernels, plan)
        overhead, raw_s, enabled_s = _interleaved_overhead(
            lambda: _loop_uninstrumented(kernels, plan),
            lambda: execute(kernels, plan), repeats=40)
    finally:
        set_recorder(previous)
        set_metrics_registry(previous_registry)
    snapshot = registry.snapshot()
    n_chunks = sum(
        row["value"]
        for row in snapshot["instruments"].get(
            "repro_core_chunks_total", {}).get("series", []))

    directory = Path(os.environ.get("BENCH_JSON_DIR",
                                    Path(__file__).resolve().parent))
    core_path = directory / "BENCH_core.json"
    merged = (json.loads(core_path.read_text())
              if core_path.is_file() else {})
    merged["metrics_overhead"] = {
        "raw_wall_s": raw_s, "enabled_wall_s": enabled_s,
        "overhead": overhead, "ceiling": ceiling,
        "chunks_metered": n_chunks}
    print(f"\nmetrics on: best raw {raw_s * 1e3:.1f} ms, execute() "
          f"{enabled_s * 1e3:.1f} ms; median ratio "
          f"{overhead * 100:+.2f}% "
          f"(ceiling {ceiling * 100:.0f}%, {n_chunks:.0f} chunks "
          f"metered) -> {bench_json('core', **merged)}")
    assert n_chunks > 0, "enabled registry recorded no chunks"
    assert overhead <= ceiling, (
        f"enabled-metrics overhead {overhead * 100:.2f}% exceeds "
        f"ceiling {ceiling * 100:.0f}%")
