"""In-memory aggregation: percentiles, summaries, sinks, JSONL traces."""

import pytest

from repro.telemetry import (
    InMemoryRecorder,
    JsonlSink,
    SpanRecord,
    percentile,
    read_jsonl,
    summarize_spans,
)


def make_span(name, duration_s, start_s=0.0, **attrs):
    """A completed span record with a fixed duration."""
    return SpanRecord(name=name, start_s=start_s, duration_s=duration_s,
                      depth=0, attrs=attrs)


class TestPercentile:
    def test_median_of_odd_sequence(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_interpolates_between_points(self):
        assert percentile([0.0, 1.0], 0.25) == pytest.approx(0.25)

    def test_extremes_are_min_and_max(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0], 1.5)


class TestSummarize:
    def test_stats_per_name_sorted_by_total(self):
        spans = [make_span("fast", 0.001)] * 3 + [make_span("slow", 0.1)]
        stats = summarize_spans(spans)
        assert list(stats) == ["slow", "fast"]
        assert stats["fast"]["count"] == 3
        assert stats["fast"]["total_s"] == pytest.approx(0.003)
        assert stats["fast"]["p50_s"] == pytest.approx(0.001)
        assert stats["slow"]["p95_s"] == pytest.approx(0.1)

    def test_empty_input_is_empty_summary(self):
        assert summarize_spans([]) == {}

    def test_recorder_summary_and_render(self):
        recorder = InMemoryRecorder()
        with recorder.span("core.run_chunk"):
            pass
        text = recorder.render_summary()
        assert "core.run_chunk" in text
        assert set(recorder.summary()["core.run_chunk"]) == {
            "count", "total_s", "p50_s", "p95_s"}

    def test_render_without_spans(self):
        assert "(no spans recorded)" in \
            InMemoryRecorder().render_summary()


class TestSinks:
    def test_events_stream_to_sink_as_recorded(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        recorder = InMemoryRecorder(sinks=[JsonlSink(trace)])
        with recorder.span("work", segment=0):
            with recorder.span("inner"):
                pass
        recorder.close()
        events = read_jsonl(trace)
        # The inner span lands first: spans emit on *exit*.
        assert [event["name"] for event in events] == ["inner", "work"]
        assert {event["type"] for event in events} == {"span"}
        assert events[1]["attrs"] == {"segment": 0}

    def test_sink_opens_lazily(self, tmp_path):
        trace = tmp_path / "never.jsonl"
        sink = JsonlSink(trace)
        sink.close()
        assert not trace.exists()

    def test_sink_closes_idempotently(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.emit({"type": "counter", "name": "n", "value": 1.0})
        sink.close()
        sink.close()  # second close is a no-op
        assert read_jsonl(tmp_path / "t.jsonl")[0]["value"] == 1.0

    def test_read_jsonl_rejects_malformed_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_jsonl(bad)

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert len(read_jsonl(trace)) == 2
