"""The chunk executor: one walk that runs every workload.

:func:`execute` is the single execution path behind ``run_batch``,
``run_monitor``, ``run_therapy`` and ``run_estimation``.  It compiles
the declarative plan, builds the kernel set's carry state, then walks
the segment graph chunk by chunk through :func:`walk_segments`:

    compile -> init_state
    for each segment:
        begin_segment
        for each chunk in segment:          # never crosses a boundary
            run_chunk(start, stop)
        end_segment
    finalize -> result

Because all cross-chunk information lives in the carry state and each
kernel consumes its random streams strictly in sample order, results
depend only on the plan (and its seed), never on the chunking policy —
the property the shared contract suite gates for every workload.  A
:class:`repro.serve.StreamSession` advances a live run through the same
walk, push by push.

Observability rides on this one walk, so every workload gets timing for
free.  Spans carry durations, the metrics registry every number:

* **Spans** (:func:`repro.telemetry.get_recorder` enabled):
  ``core.execute`` / ``core.compile`` / ``core.init_state`` /
  ``core.finalize`` from :func:`execute`, ``core.segment`` /
  ``core.run_chunk`` from the walk (so a traced stream push shows its
  chunks too).
* **Metrics** (:func:`repro.telemetry.get_metrics_registry` enabled),
  from :func:`execute` only — it meters chunks through the walk's
  ``on_chunk`` callback: per-workload ``repro_core_execute_seconds`` and
  ``repro_core_chunk_seconds`` histograms, ``repro_core_chunks_total`` /
  ``repro_core_samples_total`` counters, and the kernel set's
  :meth:`~repro.engine.core.kernelset.KernelSet.describe_metrics`
  values as ``repro_core_workload_events_total{workload, event}``.

When both are disabled — the default — no span or instrument is
requested: every phase enters the one shared no-op span (gated to
<= 3 % overhead against the bare loop in ``benchmarks/bench_core.py``;
the *enabled*-metrics path carries its own <= 3 % gate there too).
"""

from __future__ import annotations

import time

from repro.engine.core.kernelset import KernelSet
from repro.telemetry import NULL_RECORDER, get_metrics_registry, get_recorder
from repro.telemetry.metrics import exponential_buckets

#: Buckets for whole-``execute()`` latency: 1 ms doubling to ~65 s.
EXECUTE_BUCKETS_S = exponential_buckets(1e-3, 2.0, 17)

#: Buckets for per-chunk latency: 10 µs doubling to ~0.33 s.
CHUNK_BUCKETS_S = exponential_buckets(1e-5, 2.0, 16)


def _span():
    """The active recorder's ``span`` verb, or the shared no-op one
    when it is disabled, so a disabled run never calls the recorder."""
    recorder = get_recorder()
    return recorder.span if recorder.enabled else NULL_RECORDER.span


def execute(kernels: KernelSet, plan):
    """Run one declarative plan through its kernel set.

    Args:
        kernels: the workload's registered :class:`KernelSet`.
        plan: an instance of ``kernels.plan_type``.

    Returns:
        The workload's result object (``kernels.finalize``'s return),
        satisfying the scenario layer's ``ResultProtocol``.

    Raises:
        TypeError: if ``plan`` is not the plan type the kernel set
            compiles.
    """
    if not isinstance(plan, kernels.plan_type):
        raise TypeError(
            f"{kernels.name} kernels expect {kernels.plan_type.__name__}, "
            f"got {type(plan).__name__}")
    workload = kernels.name
    span = _span()
    registry = get_metrics_registry()
    on_chunk = None
    if registry.enabled:
        (execute_seconds, chunk_seconds, chunks_total, samples_total,
         workload_events) = _core_instruments(registry, workload)

        def on_chunk(lo: int, hi: int, seconds: float) -> None:
            chunk_seconds.observe(seconds)
            chunks_total.inc()
            samples_total.inc(compiled.n_channels * (hi - lo))
    execute_start = time.perf_counter()
    with span("core.execute", workload=workload):
        with span("core.compile", workload=workload):
            compiled = kernels.compile(plan)
        with span("core.init_state", workload=workload):
            state = kernels.init_state(plan)
        walk_segments(kernels, plan, state, compiled, 0,
                      compiled.n_samples, compiled.chunk_samples,
                      on_chunk)
        with span("core.finalize", workload=workload):
            result = kernels.finalize(plan, state)
    if registry.enabled:
        execute_seconds.observe(time.perf_counter() - execute_start)
        for event, value in kernels.describe_metrics(plan, result).items():
            workload_events.labels(workload=workload, event=event).inc(
                float(value))
    return result


def walk_segments(kernels: KernelSet, plan, state, compiled, start: int,
                  stop: int, chunk_samples: int, on_chunk=None) -> None:
    """Advance ``state`` over samples ``[start, stop)`` of ``compiled``.

    Chunks of at most ``chunk_samples`` never cross a segment boundary;
    ``on_chunk(lo, hi, seconds)``, if given, runs after each one with
    the chunk's wall time.  A segment's begin/end hook fires when a
    chunk starts at its first sample / ends at its last, so a walk
    resumed mid-segment does not repeat it.  Each touched segment and
    each chunk is a ``core.segment`` / ``core.run_chunk`` span on the
    active recorder.
    """
    span = _span()
    workload = kernels.name
    for segment in compiled.segments:
        lo, hi = max(start, segment.start), min(stop, segment.stop)
        if lo >= hi:
            continue
        with span("core.segment", workload=workload,
                  segment=segment.index):
            if lo == segment.start:
                kernels.begin_segment(plan, state, segment)
            for chunk_start in range(lo, hi, chunk_samples):
                chunk_stop = min(chunk_start + chunk_samples, hi)
                chunk_began = time.perf_counter()
                with span("core.run_chunk", workload=workload,
                          segment=segment.index):
                    kernels.run_chunk(plan, state, segment, chunk_start,
                                      chunk_stop)
                if on_chunk is not None:
                    on_chunk(chunk_start, chunk_stop,
                             time.perf_counter() - chunk_began)
            if hi == segment.stop:
                kernels.end_segment(plan, state, segment)


def _core_instruments(registry, workload: str):
    """The executor's per-workload metric series (get-or-create)."""
    labels = ("workload",)
    return (
        registry.histogram(
            "repro_core_execute_seconds",
            "End-to-end execute() latency per workload.",
            labels, buckets=EXECUTE_BUCKETS_S).labels(workload=workload),
        registry.histogram(
            "repro_core_chunk_seconds",
            "Per-chunk kernel latency per workload.",
            labels, buckets=CHUNK_BUCKETS_S).labels(workload=workload),
        registry.counter(
            "repro_core_chunks_total",
            "Chunks executed per workload.",
            labels).labels(workload=workload),
        registry.counter(
            "repro_core_samples_total",
            "Cells-times-samples processed per workload.",
            labels).labels(workload=workload),
        registry.counter(
            "repro_core_workload_events_total",
            "Workload-specific events per finished run (describe_metrics).",
            ("workload", "event")),
    )
