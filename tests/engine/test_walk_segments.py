"""The one segment walk behind ``execute()`` and ``StreamSession``.

:func:`walk_segments` advances a compiled plan over any sample range:
a batch run walks ``[0, n_samples)`` once, a stream walks it push by
push.  Therapy compiles one segment per dose interval, so blocks of 7
samples start and end in the middle of segments — the case where the
begin/end hooks must still fire exactly once per segment.  Telemetry
only wraps the walk in spans and meters: with it on, ``execute()``
drives the kernels through exactly the calls it makes with it off.
"""

from __future__ import annotations

import pytest

from repro.engine.core import (
    assert_fields_match,
    execute,
    kernels_for,
    walk_segments,
)
from repro.telemetry import (
    NULL_METRICS,
    NULL_RECORDER,
    InMemoryRecorder,
    MetricsRegistry,
    set_metrics_registry,
    set_recorder,
)

BLOCK = 7


class _HookLog:
    """A kernel set that records its segment hooks and chunks, then
    delegates."""

    def __init__(self, kernels) -> None:
        self.kernels = kernels
        self.calls: "list[tuple]" = []

    def __getattr__(self, name):
        return getattr(self.kernels, name)

    def begin_segment(self, plan, state, segment) -> None:
        self.calls.append(("begin", segment.index))
        self.kernels.begin_segment(plan, state, segment)

    def run_chunk(self, plan, state, segment, start, stop) -> None:
        self.calls.append(("chunk", start, stop))
        self.kernels.run_chunk(plan, state, segment, start, stop)

    def end_segment(self, plan, state, segment) -> None:
        self.calls.append(("end", segment.index))
        self.kernels.end_segment(plan, state, segment)


def _execute_logged(workload: str, recorder, registry) -> "list[tuple]":
    """The kernel calls of one ``execute()`` under the given telemetry."""
    log = _HookLog(kernels_for(workload))
    previous = set_recorder(recorder)
    previous_registry = set_metrics_registry(registry)
    try:
        execute(log, log.contract_plan())
    finally:
        set_recorder(previous)
        set_metrics_registry(previous_registry)
    return log.calls


def _walk_in_blocks(kernels, plan, block: int):
    compiled = kernels.compile(plan)
    state = kernels.init_state(plan)
    chunks = []
    for start in range(0, compiled.n_samples, block):
        stop = min(start + block, compiled.n_samples)
        walk_segments(kernels, plan, state, compiled, start, stop, block,
                      lambda lo, hi, seconds: chunks.append((lo, hi)))
    return kernels.finalize(plan, state), compiled, chunks


class TestWalkSegments:
    def test_therapy_in_blocks_of_7_matches_execute(self):
        kernels = kernels_for("therapy")
        plan = kernels.contract_plan()
        walked, compiled, __ = _walk_in_blocks(kernels, plan, BLOCK)
        assert len(compiled.segments) > 1
        assert any(segment.start % BLOCK for segment in compiled.segments)
        assert_fields_match(
            "therapy", f"walked in blocks of {BLOCK}",
            kernels.contract_fields(execute(kernels, plan)),
            kernels.contract_fields(walked))

    def test_hooks_fire_once_per_segment_across_partial_walks(self):
        log = _HookLog(kernels_for("therapy"))
        plan = log.contract_plan()
        __, compiled, chunks = _walk_in_blocks(log, plan, BLOCK)
        assert [call for call in log.calls if call[0] != "chunk"] == [
            (hook, segment.index)
            for segment in compiled.segments
            for hook in ("begin", "end")]
        assert [call[1:] for call in log.calls
                if call[0] == "chunk"] == chunks
        # Chunks tile the axis and never cross a segment boundary.
        assert [lo for lo, __ in chunks[1:]] == [hi for __, hi
                                                 in chunks[:-1]]
        assert chunks[0][0] == 0 and chunks[-1][1] == compiled.n_samples
        boundaries = {segment.stop for segment in compiled.segments}
        assert all(not any(lo < b < hi for b in boundaries)
                   for lo, hi in chunks)

    @pytest.mark.parametrize("workload", ["therapy", "monitor"])
    def test_telemetry_on_and_off_drive_the_same_walk(self, workload):
        off = _execute_logged(workload, NULL_RECORDER, NULL_METRICS)
        recorder = InMemoryRecorder()
        on = _execute_logged(workload, recorder, MetricsRegistry())
        assert on == off
        chunks = [call for call in off if call[0] == "chunk"]
        segments = [call for call in off if call[0] == "begin"]
        assert len(segments) == (3 if workload == "therapy" else 1)
        names = [record.name for record in recorder.spans]
        assert names.count("core.run_chunk") == len(chunks)
        assert names.count("core.segment") == len(segments)
