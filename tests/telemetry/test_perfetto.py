"""Perfetto ``trace_event`` export: schema round-trip and invariants.

A trace the Perfetto UI loads needs complete (``"ph": "X"``) events
with microsecond ``ts``/``dur`` plus ``"M"`` metadata naming the
tracks; these tests serialize through real JSON and load the result
back, so any schema drift fails here before a human opens the UI.
"""

import json

import pytest

from repro.telemetry import (
    SpanRecord,
    complete_event,
    perfetto_json,
    process_name_event,
    span_trace_events,
    thread_name_event,
    write_perfetto,
)


def make_span(name, start_s, duration_s, depth=0, error=None, **attrs):
    """A completed span record at an absolute monotonic start time."""
    return SpanRecord(name=name, start_s=start_s, duration_s=duration_s,
                      depth=depth, error=error, attrs=attrs)


class TestEventBuilders:
    def test_complete_event_converts_to_microseconds(self):
        event = complete_event("work", ts_s=1.5, dur_s=0.25,
                               pid=3, tid=7, args={"segment": 0})
        assert event == {"name": "work", "cat": "repro", "ph": "X",
                        "ts": 1.5e6, "dur": 0.25e6, "pid": 3, "tid": 7,
                        "args": {"segment": 0}}

    def test_metadata_events(self):
        assert process_name_event(1, "repro")["ph"] == "M"
        named = thread_name_event(1, 2, "pid:41")
        assert named["args"] == {"name": "pid:41"}
        assert (named["pid"], named["tid"]) == (1, 2)


class TestSpanTraceEvents:
    def test_timestamps_normalized_to_first_span(self):
        spans = [make_span("late", 100.5, 0.1),
                 make_span("early", 100.0, 0.2)]
        events = span_trace_events(spans)
        by_name = {event["name"]: event for event in events}
        assert by_name["early"]["ts"] == 0.0
        assert by_name["late"]["ts"] == pytest.approx(0.5e6)

    def test_error_spans_carry_error_arg(self):
        (event,) = span_trace_events(
            [make_span("failing", 0.0, 0.1, error="ValueError")])
        assert event["args"]["error"] == "ValueError"

    def test_attrs_pass_through_as_args(self):
        (event,) = span_trace_events(
            [make_span("chunk", 0.0, 0.1, segment=2)])
        assert event["args"] == {"segment": 2}

    def test_empty_spans_yield_no_events(self):
        assert span_trace_events([]) == []


class TestFullTrace:
    def test_json_round_trip_schema(self, tmp_path):
        spans = [make_span("core.execute", 10.0, 1.0),
                 make_span("core.run_chunk", 10.1, 0.4, depth=1)]
        path = write_perfetto(tmp_path / "trace.json", perfetto_json(spans))
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        events = loaded["traceEvents"]
        phases = [event["ph"] for event in events]
        # Two metadata events (process + track name), then the spans.
        assert phases == ["M", "M", "X", "X"]
        for event in events:
            assert {"name", "ph", "pid"} <= set(event)
        complete = [event for event in events if event["ph"] == "X"]
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] > 0.0

    def test_trace_without_counters_has_no_other_data(self):
        trace = perfetto_json([make_span("a", 0.0, 0.1)])
        assert "otherData" not in trace
        assert len(trace["traceEvents"]) == 3
