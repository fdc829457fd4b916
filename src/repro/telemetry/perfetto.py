"""Chrome/Perfetto ``trace_event`` export: flame graphs from spans.

Serializes recorded spans into the JSON object format both
``chrome://tracing`` and the Perfetto UI (https://ui.perfetto.dev) load
directly: a ``traceEvents`` list of complete (``"ph": "X"``) events
with microsecond ``ts``/``dur``, plus ``"M"`` metadata events naming
the process and per-worker tracks.  One schema serves both telemetry
sources:

* in-process engine spans (``python -m repro run --perfetto-out``) via
  :func:`perfetto_json`;
* campaign shard lifecycles from the artifact store's telemetry table
  (``python -m repro campaign report --perfetto-out``), which builds
  its events with :func:`complete_event` / :func:`thread_name_event`,
  one track per worker process.

Timestamps are normalized so the earliest event sits at ``ts = 0`` —
traces are relative timelines, never wall-clock artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.telemetry.recorder import SpanRecord


def complete_event(name: str, ts_s: float, dur_s: float, pid: int = 1,
                   tid: int = 1, cat: str = "repro",
                   args: dict | None = None) -> dict:
    """One ``"ph": "X"`` (complete) trace event.

    Args:
        name: event label shown on the track.
        ts_s: start time in seconds (converted to integer-friendly µs).
        dur_s: duration in seconds.
        pid / tid: process/track ids (Perfetto groups by these).
        cat: event category (filterable in the UI).
        args: optional key/value payload shown in the detail pane.
    """
    event = {"name": name, "cat": cat, "ph": "X",
             "ts": round(ts_s * 1e6, 3), "dur": round(dur_s * 1e6, 3),
             "pid": pid, "tid": tid}
    if args:
        event["args"] = args
    return event


def thread_name_event(pid: int, tid: int, name: str) -> dict:
    """A ``"ph": "M"`` metadata event naming track ``tid``."""
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def process_name_event(pid: int, name: str) -> dict:
    """A ``"ph": "M"`` metadata event naming process ``pid``."""
    return {"name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": name}}


def span_trace_events(spans: Iterable[SpanRecord], pid: int = 1,
                      tid: int = 1) -> list[dict]:
    """Spans as complete events, timestamps normalized to start at 0.

    Error spans carry ``args.error`` so failed stretches are visible in
    the UI; span attrs pass through as event args.
    """
    records = list(spans)
    if not records:
        return []
    t0 = min(record.start_s for record in records)
    events = []
    for record in records:
        args: dict = dict(record.attrs)
        if record.error is not None:
            args["error"] = record.error
        events.append(complete_event(
            record.name, record.start_s - t0, record.duration_s,
            pid=pid, tid=tid, args=args or None))
    return events


def perfetto_json(spans: Iterable[SpanRecord],
                  process_name: str = "repro") -> dict:
    """The full Perfetto-loadable trace object for one process's spans.

    Args:
        spans: completed :class:`~repro.telemetry.SpanRecord` entries.
        process_name: label for the single process track.

    Returns:
        ``{"traceEvents": [...], "displayTimeUnit": "ms", ...}`` —
        ``json.dumps`` of this is a file the Perfetto UI opens as-is.
    """
    events = [process_name_event(1, process_name),
              thread_name_event(1, 1, "engine")]
    events += span_trace_events(spans, pid=1, tid=1)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(path: "str | Path", trace: dict) -> Path:
    """Write a trace dict (:func:`perfetto_json` of spans, or a
    campaign's :func:`repro.campaigns.report.perfetto_trace`) to
    ``path`` as sorted, indented JSON and return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return target
