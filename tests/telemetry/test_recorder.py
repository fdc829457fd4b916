"""Recorder semantics: strict no-op when disabled, safe when enabled.

The two contracts the whole subsystem hangs on: a disabled recorder
costs nothing on the hot path (the executor's disabled branch makes
*zero* telemetry calls, and the null span is one shared object), and
an enabled recorder is exception-safe (spans record and re-raise,
nesting depth unwinds).
"""

import logging

import pytest

from repro.engine.core import kernels_for
from repro.engine.core.executor import execute
from repro.serve import StreamSession
from repro.telemetry import (
    NULL_RECORDER,
    InMemoryRecorder,
    NullMetricsRegistry,
    NullRecorder,
    TraceIdFilter,
    get_recorder,
    recorder_from_env,
    set_metrics_registry,
    set_recorder,
    span,
    telemetry_env_enabled,
    trace_context,
)


class CountingStub(NullRecorder):
    """A disabled recorder that counts every telemetry call.

    Still ``enabled = False``: any call that lands here proves a hot
    path did telemetry work despite telemetry being off.
    """

    def __init__(self):
        super().__init__()
        self.calls = 0

    def span(self, name, **attrs):
        self.calls += 1
        return super().span(name, **attrs)

    def record_span(self, record):
        self.calls += 1


class CountingMetricsStub(NullMetricsRegistry):
    """A disabled metrics registry that counts every instrument request.

    Still ``enabled = False``: any call that lands here proves a hot
    path asked for an instrument despite metrics being off.
    """

    def __init__(self):
        super().__init__()
        self.calls = 0

    def counter(self, *args, **kwargs):
        self.calls += 1
        return super().counter(*args, **kwargs)

    def gauge(self, *args, **kwargs):
        self.calls += 1
        return super().gauge(*args, **kwargs)

    def histogram(self, *args, **kwargs):
        self.calls += 1
        return super().histogram(*args, **kwargs)


class TestDisabledIsFree:
    def test_executor_disabled_path_makes_zero_telemetry_calls(self):
        """The acceptance stub: a full engine run through the chunked
        executor with telemetry off must never touch the recorder."""
        stub = CountingStub()
        previous = set_recorder(stub)
        try:
            kernels = kernels_for("monitor")
            execute(kernels, kernels.contract_plan())
        finally:
            set_recorder(previous)
        assert stub.calls == 0

    def test_disabled_metrics_make_zero_instrument_calls(self):
        """Neither a batch run nor a stream push asks a disabled
        registry for an instrument."""
        stub = CountingMetricsStub()
        previous = set_metrics_registry(stub)
        try:
            kernels = kernels_for("monitor")
            execute(kernels, kernels.contract_plan())
            session = StreamSession("monitor", kernels.contract_plan())
            while not session.done:
                session.advance(50)
        finally:
            set_metrics_registry(previous)
        assert stub.calls == 0

    def test_null_span_is_one_shared_object(self):
        """No allocation per span: every disabled span() call returns
        the same context manager instance."""
        first = NULL_RECORDER.span("a", key=1)
        second = NULL_RECORDER.span("b")
        assert first is second

    def test_null_verbs_record_nothing_and_null_span_nests(self):
        with NULL_RECORDER.span("outer"):
            with NULL_RECORDER.span("inner"):
                pass

    def test_null_span_propagates_exceptions(self):
        with pytest.raises(RuntimeError, match="boom"):
            with NULL_RECORDER.span("failing"):
                raise RuntimeError("boom")


class TestEnabledSpans:
    def test_span_records_duration_and_attrs(self, recorder):
        with recorder.span("work", workload="monitor"):
            pass
        (record,) = recorder.spans
        assert record.name == "work"
        assert record.attrs == {"workload": "monitor"}
        assert record.duration_s >= 0.0
        assert record.error is None

    def test_nesting_depth_tracks_and_unwinds(self, recorder):
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
            with recorder.span("sibling"):
                pass
        depths = {r.name: r.depth for r in recorder.spans}
        assert depths == {"inner": 1, "sibling": 1, "outer": 0}

    def test_exception_recorded_and_propagated(self, recorder):
        with pytest.raises(ValueError, match="bad"):
            with recorder.span("outer"):
                with recorder.span("failing"):
                    raise ValueError("bad")
        errors = {r.name: r.error for r in recorder.spans}
        assert errors == {"failing": "ValueError", "outer": "ValueError"}
        # Depth unwound cleanly despite the raise: a new root span
        # starts back at depth 0.
        with recorder.span("after"):
            pass
        assert recorder.spans[-1].depth == 0

    def test_module_level_verbs_hit_active_recorder(self, recorder):
        with span("modlevel"):
            pass
        assert recorder.spans[0].name == "modlevel"


class TestActiveRecorder:
    def test_default_is_disabled(self):
        previous = set_recorder(None)
        try:
            assert get_recorder() is NULL_RECORDER
        finally:
            set_recorder(previous)

    def test_set_recorder_returns_previous(self):
        first = InMemoryRecorder()
        previous = set_recorder(first)
        try:
            assert get_recorder() is first
            second = InMemoryRecorder()
            assert set_recorder(second) is first
            assert get_recorder() is second
        finally:
            set_recorder(previous)

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("no", False), ("off", False),
    ])
    def test_env_enable_spellings(self, value, expected):
        assert telemetry_env_enabled({"REPRO_TELEMETRY": value}) \
            is expected

    def test_env_unset_is_disabled(self):
        assert telemetry_env_enabled({}) is False

    def test_recorder_from_env_disabled(self):
        assert recorder_from_env({}) is NULL_RECORDER

    def test_recorder_from_env_enabled_with_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        recorder = recorder_from_env({"REPRO_TELEMETRY": "1",
                                      "REPRO_TELEMETRY_TRACE":
                                      str(trace)})
        assert isinstance(recorder, InMemoryRecorder)
        assert recorder.enabled
        with recorder.span("probe"):
            pass
        recorder.close()
        assert trace.is_file()


class TestTraceIdOnLogRecords:
    def test_handler_filter_stamps_child_logger_records(self, caplog):
        """On the handler, the filter sees records a child logger
        propagates, inside and outside a trace."""
        trace_filter = TraceIdFilter()
        caplog.handler.addFilter(trace_filter)
        logger = logging.getLogger("trace_id_test.child")
        try:
            with caplog.at_level(logging.INFO, logger="trace_id_test"):
                with trace_context("0123456789abcdef"):
                    logger.info("inside")
                logger.info("outside")
        finally:
            caplog.handler.removeFilter(trace_filter)
        assert [(r.getMessage(), r.trace_id) for r in caplog.records] \
            == [("inside", "0123456789abcdef"), ("outside", "-")]
