"""Telemetry: spans, metrics, and trace export for every layer.

The observability subsystem the execution core, the serve front door,
the campaign runner and the CLI all share.  One instrumentation API
with two halves — the recorder keeps **spans** (where did this run
spend its time), the metrics registry keeps **every number** (counts,
levels, latency distributions).  Five small modules:

* :mod:`~repro.telemetry.recorder` — spans: ``span()`` context
  managers, the process-local active recorder, and trace correlation
  (:func:`new_trace_id` / :func:`trace_context` /
  :func:`current_trace_id`).  **Disabled is a strict no-op**: the
  default :data:`NULL_RECORDER` allocates nothing, and hot paths branch
  once on :attr:`Recorder.enabled` (the disabled executor path is gated
  to within 3 % of the uninstrumented loop in
  ``benchmarks/bench_core.py``).
* :mod:`~repro.telemetry.metrics` — numbers: typed
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments
  with label sets and cardinality caps behind a process-wide
  :class:`MetricsRegistry`, snapshot merge across processes, quantile
  estimation, and Prometheus text exposition
  (:func:`render_prometheus` / :func:`parse_prometheus`).  The same
  null-object discipline: :data:`NULL_METRICS` by default, enabled via
  ``REPRO_METRICS=1`` or :func:`set_metrics_registry`, gated <= 3 %
  enabled overhead on the executor.
* :mod:`~repro.telemetry.aggregate` — :class:`InMemoryRecorder`, the
  enabled recorder: keeps every span and renders ``summary()``
  (count / total / p50 / p95 per span name); plus
  :func:`telemetry_session`, the set-up/report block the CLIs share.
* :mod:`~repro.telemetry.sinks` — :class:`JsonlSink`, the streaming
  JSONL trace writer (and :func:`read_jsonl` to load traces back).
* :mod:`~repro.telemetry.perfetto` — the Chrome/Perfetto
  ``trace_event`` exporter: open the written file in
  https://ui.perfetto.dev for a flame graph of any run.

Enable with ``REPRO_TELEMETRY=1`` (spans and metrics, plus optional
``REPRO_TELEMETRY_TRACE=/path.jsonl``), ``REPRO_METRICS=1`` (metrics
alone), the ``--telemetry`` flag on ``python -m repro run``, or
programmatically::

    from repro.telemetry import InMemoryRecorder, set_recorder

    recorder = InMemoryRecorder()
    set_recorder(recorder)
    run_workload("monitor", plan)          # spans land in the recorder
    print(recorder.render_summary())

Campaign-side telemetry (shard lifecycle events, worker utilization,
per-shard metrics snapshots, `python -m repro campaign report`)
persists in the artifact store's schema-versioned ``telemetry`` table —
see :mod:`repro.campaigns.report`.  Wall-clock telemetry never leaks
into deterministic exports: ``export_json`` stays byte-identical across
interrupted/resumed runs, instrumented or not.
"""

from repro.telemetry.aggregate import (
    InMemoryRecorder,
    percentile,
    summarize_spans,
    telemetry_session,
)
from repro.telemetry.metrics import (
    DEFAULT_CARDINALITY_CAP,
    DEFAULT_LATENCY_BUCKETS_S,
    METRICS_ENV,
    METRICS_SCHEMA_VERSION,
    NULL_METRICS,
    OVERFLOW_LABEL,
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    exponential_buckets,
    format_metric_value,
    gc_collection_counts,
    get_metrics_registry,
    histogram_quantile,
    merge_snapshots,
    metrics_env_enabled,
    metrics_registry_from_env,
    parse_prometheus,
    render_prometheus,
    render_snapshot,
    require_snapshot,
    rss_bytes,
    set_metrics_registry,
    snapshot_histogram_rows,
)
from repro.telemetry.perfetto import (
    complete_event,
    perfetto_json,
    process_name_event,
    span_trace_events,
    thread_name_event,
    write_perfetto,
)
from repro.telemetry.recorder import (
    ENABLE_ENV,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    SpanRecord,
    TRACE_ENV,
    TraceIdFilter,
    current_trace_id,
    get_recorder,
    new_trace_id,
    recorder_from_env,
    set_recorder,
    span,
    telemetry_env_enabled,
    trace_context,
)
from repro.telemetry.sinks import JsonlSink, read_jsonl

__all__ = [
    "Counter",
    "DEFAULT_CARDINALITY_CAP",
    "DEFAULT_LATENCY_BUCKETS_S",
    "ENABLE_ENV",
    "Gauge",
    "Histogram",
    "InMemoryRecorder",
    "JsonlSink",
    "METRICS_ENV",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_RECORDER",
    "NullMetricsRegistry",
    "NullRecorder",
    "OVERFLOW_LABEL",
    "PROMETHEUS_CONTENT_TYPE",
    "Recorder",
    "SpanRecord",
    "TRACE_ENV",
    "TraceIdFilter",
    "complete_event",
    "current_trace_id",
    "exponential_buckets",
    "format_metric_value",
    "gc_collection_counts",
    "get_metrics_registry",
    "get_recorder",
    "histogram_quantile",
    "merge_snapshots",
    "metrics_env_enabled",
    "metrics_registry_from_env",
    "new_trace_id",
    "parse_prometheus",
    "percentile",
    "perfetto_json",
    "process_name_event",
    "read_jsonl",
    "recorder_from_env",
    "render_prometheus",
    "render_snapshot",
    "require_snapshot",
    "rss_bytes",
    "set_metrics_registry",
    "set_recorder",
    "snapshot_histogram_rows",
    "span",
    "span_trace_events",
    "summarize_spans",
    "telemetry_env_enabled",
    "telemetry_session",
    "thread_name_event",
    "trace_context",
    "write_perfetto",
]
