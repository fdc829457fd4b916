"""Thread safety: concurrent recording produces consistent state.

Serve's worker pool and campaign shard threads all write spans through
one recorder and one JSONL sink, and numbers through one metrics
registry.  These tests hammer
each from many threads and assert the invariants that matter: JSONL
output stays line-complete valid JSON with no interleaved writes,
aggregate counts add up exactly, and registry instruments lose no
updates.
"""

from __future__ import annotations

import threading

from repro.telemetry import (
    InMemoryRecorder,
    JsonlSink,
    MetricsRegistry,
    read_jsonl,
    trace_context,
)

N_THREADS = 8
N_EVENTS = 50


def _run_threads(target) -> None:
    """Start N_THREADS running ``target(thread_index)``, join all."""
    threads = [threading.Thread(target=target, args=(index,))
               for index in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestConcurrentRecorder:
    def test_spans_and_counts_from_many_threads(self, tmp_path):
        """N threads x spans through one recorder/sink + counts through
        one registry: every JSONL line parses, every event lands
        exactly once."""
        trace = tmp_path / "trace.jsonl"
        recorder = InMemoryRecorder(sinks=[JsonlSink(trace)])
        events = MetricsRegistry().counter("unit_events_total")

        def work(index: int) -> None:
            for step in range(N_EVENTS):
                with trace_context():
                    with recorder.span("unit.work", thread=index,
                                       step=step):
                        events.inc()

        _run_threads(work)
        recorder.close()

        assert events.value == N_THREADS * N_EVENTS
        assert len(recorder.spans) == N_THREADS * N_EVENTS

        spans = read_jsonl(trace)  # raises if any line is torn JSON
        assert [row["type"] for row in spans] == \
            ["span"] * (N_THREADS * N_EVENTS)
        # every span got its own thread's trace id stamped, none empty
        trace_ids = {row["attrs"]["trace_id"] for row in spans}
        assert len(trace_ids) == N_THREADS * N_EVENTS
        # per-thread events are complete: each (thread, step) pair once
        seen = {(row["attrs"]["thread"], row["attrs"]["step"])
                for row in spans}
        assert len(seen) == N_THREADS * N_EVENTS

    def test_span_depth_is_per_thread(self):
        """Nesting depth lives in thread-local storage: deep nesting
        on one thread never leaks indentation into another."""
        recorder = InMemoryRecorder()
        depths: dict[int, int] = {}
        barrier = threading.Barrier(2)

        def nested(index: int) -> None:
            with recorder.span("outer"):
                barrier.wait(timeout=10)
                if index == 0:
                    with recorder.span("inner"):
                        barrier.wait(timeout=10)
                else:
                    barrier.wait(timeout=10)
                depths[index] = recorder._depth

        _threads = [threading.Thread(target=nested, args=(i,))
                    for i in range(2)]
        for thread in _threads:
            thread.start()
        for thread in _threads:
            thread.join()
        assert depths == {0: 1, 1: 1}


class TestConcurrentRegistry:
    def test_no_lost_updates(self):
        registry = MetricsRegistry()

        def work(index: int) -> None:
            counter = registry.counter("ops_total", "", ["thread"])
            hist = registry.histogram("op_seconds", buckets=[0.5, 1.0])
            for step in range(N_EVENTS):
                counter.labels(thread=index).inc()
                hist.observe(0.25)

        _run_threads(work)
        snapshot = registry.snapshot()
        totals = sum(row["value"] for row in
                     snapshot["instruments"]["ops_total"]["series"])
        assert totals == N_THREADS * N_EVENTS
        lat = snapshot["instruments"]["op_seconds"]["series"][0]
        assert lat["count"] == N_THREADS * N_EVENTS
        assert lat["bucket_counts"][0] == N_THREADS * N_EVENTS

    def test_concurrent_family_registration_is_single(self):
        registry = MetricsRegistry()
        families = []

        def register(index: int) -> None:
            families.append(registry.counter("shared_total"))

        _run_threads(register)
        assert all(family is families[0] for family in families)
