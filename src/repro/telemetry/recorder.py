"""The instrumentation primitives: spans, trace ids, the active recorder.

The recorder has one verb, :meth:`Recorder.span`; every number (counts,
levels, latency distributions) lives on the metrics registry
(:mod:`repro.telemetry.metrics`).  Everything here is built around one
invariant: **disabled telemetry is a strict no-op**.  The default
process-local recorder is :data:`NULL_RECORDER`, whose ``span()`` hands
back one shared, allocation-free context manager — and the hot paths
(:func:`repro.engine.core.executor.execute`) additionally branch on
:attr:`Recorder.enabled` so a disabled run never constructs a single
telemetry object per chunk (gated by the overhead benchmark in
``benchmarks/bench_core.py`` and the counting-stub test in
``tests/telemetry/test_recorder.py``).

Telemetry turns on either programmatically (:func:`set_recorder` with
an :class:`~repro.telemetry.InMemoryRecorder`) or from the environment:
``REPRO_TELEMETRY=1`` makes :func:`get_recorder` build an in-memory
recorder on first use (and the metrics registry turn on with it), and
``REPRO_TELEMETRY_TRACE=/path.jsonl`` additionally streams every span
to a JSONL trace sink (:mod:`repro.telemetry.sinks`).

Span timestamps come from ``time.perf_counter`` — monotonic and
comparable within one process, which is all a flame graph needs.  The
wall-clock side of telemetry (campaign shard lifecycle) lives in the
campaign store and is deliberately excluded from deterministic exports,
exactly like ``elapsed_s``.

**Trace correlation.**  :func:`new_trace_id` mints an opaque id and
:func:`trace_context` scopes it over a stretch of work via
``contextvars`` (the serve front door opens one per request, the
campaign runner one per shard).  While a trace id is active, every
completed span carries it in ``attrs["trace_id"]`` — so it lands in the
JSONL trace and the Perfetto timeline — and every histogram observation
in :mod:`repro.telemetry.metrics` stamps it as an exemplar, letting a
slow bucket be chased back to one request's spans.  A
:class:`TraceIdFilter` on a logging handler puts it on log lines too.

**Thread-safety.**  The nesting-depth counter is thread-local (each
serve worker thread nests independently), and the shipped recorders
(:class:`~repro.telemetry.InMemoryRecorder`, with
:class:`~repro.telemetry.JsonlSink` underneath) serialize their hooks
with locks, so concurrent spans from a thread pool interleave without
tearing lines.
"""

from __future__ import annotations

import contextvars
import logging
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

#: Environment switch: a truthy value ("1", "true", "yes", "on")
#: makes :func:`get_recorder` start an in-memory recorder.
ENABLE_ENV = "REPRO_TELEMETRY"

#: Environment knob: a JSONL file path; when telemetry is enabled the
#: env-built recorder streams every span there as it is recorded.
TRACE_ENV = "REPRO_TELEMETRY_TRACE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def telemetry_env_enabled(environ: Mapping[str, str] | None = None) -> bool:
    """Whether the environment asks for telemetry (``REPRO_TELEMETRY``).

    Args:
        environ: mapping to consult (default ``os.environ``).

    Returns:
        True for the truthy spellings ``1``/``true``/``yes``/``on``
        (case-insensitive); False for anything else, including unset.
    """
    if environ is None:
        environ = os.environ
    return environ.get(ENABLE_ENV, "").strip().lower() in _TRUTHY


_TRACE_ID: contextvars.ContextVar["str | None"] = contextvars.ContextVar(
    "repro_trace_id", default=None)


def new_trace_id() -> str:
    """Mint an opaque 16-hex-digit trace id.

    Random (uuid4-derived), not sequential: ids minted concurrently by
    serve threads and campaign worker processes must not collide.
    """
    return uuid.uuid4().hex[:16]


def current_trace_id() -> "str | None":
    """The trace id active in this context, or None outside any trace."""
    return _TRACE_ID.get()


@contextmanager
def trace_context(trace_id: "str | None" = None) -> Iterator[str]:
    """Scope ``trace_id`` (minted if None) over the ``with`` body.

    Every span completed inside the body carries the id in
    ``attrs["trace_id"]``; histogram observations stamp it as their
    exemplar.  Context-local (``contextvars``), so concurrent asyncio
    tasks and threads each see only their own id.  Note that
    ``loop.run_in_executor`` does **not** propagate context — wrap
    executor calls with ``contextvars.copy_context().run`` to carry the
    id across.  The serve front door needs neither: it advances
    streams on the event loop, inside the request's context, and hands
    a job's id to its worker process explicitly.

    Yields:
        The active trace id.
    """
    if trace_id is None:
        trace_id = new_trace_id()
    token = _TRACE_ID.set(trace_id)
    try:
        yield trace_id
    finally:
        _TRACE_ID.reset(token)


class TraceIdFilter(logging.Filter):
    """Set ``record.trace_id`` to the active trace id (``"-"`` outside
    any trace), for a ``%(trace_id)s`` field in a log format.

    Attach it to a *handler*: a filter on a logger sees only records
    logged through that logger itself, never those its child loggers
    (``repro.serve.server``, ``repro.campaigns.runner``) propagate.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        """Stamp ``record`` and let it through."""
        record.trace_id = current_trace_id() or "-"
        return True


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a named, timed stretch of work.

    Attributes:
        name: span name (dotted, e.g. ``core.run_chunk``).
        start_s: ``time.perf_counter()`` at entry — monotonic,
            process-local seconds; use deltas, never wall-clock.
        duration_s: elapsed seconds between entry and exit.
        depth: nesting depth at entry (0 for a root span).
        error: exception class name if the span body raised, else None
            (the exception itself always propagates).
        attrs: caller-supplied key/value annotations.
    """

    name: str
    start_s: float
    duration_s: float
    depth: int
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    def to_event(self) -> dict:
        """The span as a flat JSONL trace event dict."""
        event = {"type": "span", "name": self.name, "ts_s": self.start_s,
                 "dur_s": self.duration_s, "depth": self.depth}
        if self.error is not None:
            event["error"] = self.error
        if self.attrs:
            event["attrs"] = self.attrs
        return event


class _Span:
    """Context manager timing one span on an enabled recorder.

    Exception-safe by construction: ``__exit__`` records the span with
    the exception's class name and returns False, so the error both
    shows up in the trace and propagates to the caller unchanged.
    """

    __slots__ = ("_recorder", "_name", "_attrs", "_start", "_depth")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        """Start the clock and push one nesting level."""
        self._depth = self._recorder._depth
        self._recorder._depth = self._depth + 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Record the span (error-annotated if raising); never swallow.

        A :func:`current_trace_id` active at exit is stamped into the
        span's attrs as ``trace_id`` (without clobbering an explicit
        caller-supplied one), correlating the span — and the JSONL
        line it becomes — with its request or shard.
        """
        duration = time.perf_counter() - self._start
        self._recorder._depth = self._depth
        trace_id = current_trace_id()
        if trace_id is not None and "trace_id" not in self._attrs:
            self._attrs["trace_id"] = trace_id
        self._recorder._on_span(SpanRecord(
            name=self._name, start_s=self._start, duration_s=duration,
            depth=self._depth,
            error=exc_type.__name__ if exc_type is not None else None,
            attrs=self._attrs))
        return False


class _NullSpan:
    """The shared no-op span: enter/exit do nothing, allocate nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        """No-op entry."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """No-op exit; exceptions propagate."""
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Base recorder: the one instrumentation verb, :meth:`span`.

    Subclasses override :meth:`_on_span` to aggregate or stream the
    completed spans; callers only ever use :meth:`span` (or the
    module-level :func:`span` that dispatches to the active recorder).

    Attributes:
        enabled: hot paths may branch on this once and skip
            instrumentation entirely when False.
    """

    enabled = True

    def __init__(self) -> None:
        """Initialize the (thread-local) nesting-depth counter."""
        self._local = threading.local()

    @property
    def _depth(self) -> int:
        # Depth is per *thread*: each serve worker nests its own spans
        # independently, so a shared counter would let one thread's
        # nesting leak into another's records.
        return getattr(self._local, "depth", 0)

    @_depth.setter
    def _depth(self, value: int) -> None:
        self._local.depth = value

    def span(self, name: str, **attrs: Any) -> "_Span | _NullSpan":
        """A context manager timing ``name`` around its ``with`` body."""
        return _Span(self, name, attrs)

    def record_span(self, record: SpanRecord) -> None:
        """Feed an externally produced, already-completed span in.

        The replay path: a campaign worker aggregates one shard's spans
        in a private recorder, then replays them into the process-level
        recorder (and through it, any attached trace sinks) once the
        shard finishes.
        """
        self._on_span(record)

    def close(self) -> None:
        """Flush/close any attached sinks (default: nothing to do)."""

    def _on_span(self, record: SpanRecord) -> None:
        """Subclass hook: receive one completed span (default: drop it)."""


class NullRecorder(Recorder):
    """The disabled recorder: ``span()`` is a strict no-op.

    ``span()`` returns one shared, slotted context manager, so even
    code that does not branch on :attr:`enabled` pays no allocation
    when telemetry is off.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """The shared no-op span (no allocation, no timing)."""
        return _NULL_SPAN


#: The process-wide disabled recorder (the default active recorder).
NULL_RECORDER = NullRecorder()

_ACTIVE: Recorder | None = None


def recorder_from_env(environ: Mapping[str, str] | None = None) -> Recorder:
    """Build the recorder the environment asks for.

    ``REPRO_TELEMETRY`` truthy yields an
    :class:`~repro.telemetry.InMemoryRecorder` (with a JSONL sink
    attached when ``REPRO_TELEMETRY_TRACE`` names a path); anything
    else yields :data:`NULL_RECORDER`.
    """
    if environ is None:
        environ = os.environ
    if not telemetry_env_enabled(environ):
        return NULL_RECORDER
    from repro.telemetry.aggregate import InMemoryRecorder
    from repro.telemetry.sinks import JsonlSink

    trace_path = environ.get(TRACE_ENV, "").strip()
    sinks = (JsonlSink(trace_path),) if trace_path else ()
    return InMemoryRecorder(sinks=sinks)


def get_recorder() -> Recorder:
    """The process-local active recorder.

    Lazily initialized from the environment on first call
    (:func:`recorder_from_env`); :data:`NULL_RECORDER` unless telemetry
    was enabled.  Hot paths call this once per operation and branch on
    :attr:`Recorder.enabled`.
    """
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = recorder_from_env()
    return _ACTIVE


def set_recorder(recorder: Recorder | None) -> Recorder | None:
    """Install ``recorder`` as the process-local active recorder.

    Args:
        recorder: the new active recorder, or None to fall back to
            lazy re-initialization from the environment on the next
            :func:`get_recorder` call.

    Returns:
        The previously active recorder (None if never initialized) —
        hand it back to ``set_recorder`` to restore the prior state.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


def span(name: str, **attrs: Any):
    """Module-level convenience: a span on the active recorder."""
    return get_recorder().span(name, **attrs)

