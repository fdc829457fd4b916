"""The async front door: scenarios and live streams over HTTP.

A deliberately small server built on nothing but the standard library
(``asyncio.start_server`` plus a hand-rolled HTTP/1.1 request reader —
no web framework, matching the repo's no-new-dependencies rule).  It
exposes the two serving modes of :mod:`repro.serve`:

* **Jobs** — submit a scenario envelope (``POST /scenarios``), read
  its status (``GET /scenarios/{id}``, or long-poll it with
  ``?wait=<s>`` until the job finishes), fetch the replayable result
  artifact (``GET /scenarios/{id}/result``).  Jobs drain through a
  bounded work queue with a per-workload concurrency limit; a full
  queue answers 503 instead of buffering without bound.  Each job runs
  in a pre-forked worker process, so concurrent jobs compute in
  parallel instead of taking turns on one interpreter lock.
* **Streams** — open an incremental session for a scenario
  (``POST /streams``), push readings in blocks
  (``POST /streams/{id}/readings``), read back the filtered estimates
  as they are produced, snapshot (``GET /streams/{id}/snapshot``) and
  finally fetch the batch-identical result
  (``GET /streams/{id}/result``).

Observability is first-class.  The server meters itself through
:mod:`repro.telemetry.metrics` instruments — per-endpoint request
latency histograms, error counters by status class, per-workload
in-flight gauges, queue depth, stream/readings throughput, plus
periodic runtime collectors (RSS, GC counts, event-loop lag) — and
exposes them two ways on ``GET /metrics``: the legacy JSON payload
(counters derived from the same registry series) and Prometheus text
exposition format 0.0.4 on ``GET /metrics?format=prometheus``.  Every
request is assigned a ``trace_id`` at the front door
(:func:`repro.telemetry.trace_context`, echoed back as an
``X-Trace-Id`` header): the request's spans carry it into the JSONL
trace, its latency observation stamps it as the histogram exemplar,
and a job inherits its submitting request's id — so a slow bucket in
the histogram leads straight to one request's Perfetto timeline.
The active :mod:`repro.telemetry` recorder receives ``serve.*``
spans, plus the engine spans each job worker ships back and the
server replays; every count lives on the registry, into which each
job's worker-side metrics snapshot is merged.

Endpoint reference: ``docs/serving.md``.  Run it with
``python -m repro serve``; tests drive an in-process
:class:`ServerThread`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import math
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    get_metrics_registry,
    get_recorder,
    set_metrics_registry,
    trace_context,
)

_LOG = logging.getLogger("repro.serve.server")

#: Largest request body the server will read [bytes]; larger requests
#: are answered 413 before the body is consumed.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest request line or header line the server will read [bytes],
#: the connection's stream buffer limit; a longer request line is
#: answered 400, a longer header line 431.
MAX_LINE_BYTES = 64 * 1024

#: Most header lines one request may carry; more are answered 431.
MAX_HEADERS = 100

#: Longest a ``GET /scenarios/{id}?wait=<s>`` long-poll is held [s];
#: larger waits are clamped to it.
MAX_WAIT_S = 30.0

#: Longest the server keeps reading (and discarding) a request it
#: refused before closing the connection [s].
_LINGER_S = 1.0

#: Longest a connection may take to deliver one request [s], from when
#: the server starts waiting for its request line until its body is
#: read.  An idle kept-alive connection is closed at it; a request
#: still incomplete at it is answered 408 and its connection closed.
_READ_DEADLINE_S = 10.0

#: Longest :meth:`ReproServer.stop` lets open requests finish [s]
#: before cancelling them.
_SHUTDOWN_GRACE_S = 1.0

_STATUS_TEXT = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 408: "Request Timeout",
    409: "Conflict", 413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Routing-level failure carrying an HTTP status and message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_line(reader: asyncio.StreamReader, status: int,
                     what: str) -> bytes:
    """One request or header line; past :data:`MAX_LINE_BYTES` the
    stream raises ``ValueError``, answered with ``status``.

    A line the stream ended in the middle of raises
    ``asyncio.IncompleteReadError``, as a cut body does; an empty
    result means the stream ended before the line began.
    """
    try:
        line = await reader.readline()
    except ValueError:
        raise _HttpError(status, f"{what} longer than {MAX_LINE_BYTES} "
                                 f"bytes") from None
    if line and not line.endswith(b"\n"):
        raise asyncio.IncompleteReadError(line, None)
    return line


async def _discard_unread(reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
    """Half-close, then read what the client still sends, for at most
    :data:`_LINGER_S`: closing on unread input resets the connection,
    which can discard the error response before the client reads it."""
    if writer.can_write_eof():
        writer.write_eof()
    try:
        await asyncio.wait_for(_read_to_eof(reader), _LINGER_S)
    except asyncio.TimeoutError:
        pass


async def _read_to_eof(reader: asyncio.StreamReader) -> None:
    while await reader.read(MAX_LINE_BYTES):
        pass


@dataclass
class _Text:
    """A non-JSON response body carrying its own content type."""

    text: str
    content_type: str = "text/plain; charset=utf-8"


@dataclass
class _Job:
    """One submitted scenario run moving through the work queue."""

    job_id: str
    scenario: Any
    status: str = "queued"          # queued -> running -> done | failed
    result: Any = None
    error: "str | None" = None
    trace_id: "str | None" = None   # inherited from the submit request
    submitted_s: float = field(default_factory=time.perf_counter)
    #: Set once the job is done or failed (and on server stop), waking
    #: every long-poll waiting on it.
    finished: asyncio.Event = field(default_factory=asyncio.Event)

    def describe(self) -> dict:
        """Status payload for ``GET /scenarios/{id}``."""
        return {
            "job_id": self.job_id,
            "workload": self.scenario.workload,
            "name": self.scenario.name,
            "status": self.status,
            "error": self.error,
        }


@dataclass
class _Stream:
    """One open incremental session."""

    stream_id: str
    scenario: Any
    session: Any

    def describe(self) -> dict:
        """Status payload for ``GET /streams/{id}``."""
        return {
            "stream_id": self.stream_id,
            "workload": self.session.workload,
            "name": self.scenario.name,
            "cursor": self.session.cursor,
            "n_samples": self.session.n_samples,
            "n_channels": self.session.n_channels,
            "done": self.session.done,
        }


def _init_job_worker() -> None:
    """Job-process initializer: leave signal handling to the server.

    A forked worker inherits the server's Python-level SIGINT/SIGTERM
    handlers, which would turn a terminal Ctrl-C into a traceback in
    every worker and make ``terminate()`` raise instead of exit.  The
    server owns shutdown and terminates its workers itself.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _job_entry(scenario, trace_id: "str | None", spans: bool):
    """Job-process entry: one scenario under the submit request's trace.

    Returns ``(result, spans, metrics_snapshot)`` from
    :func:`repro.scenarios.runner.run_isolated`; the server replays the
    spans and merges the snapshot.
    """
    from repro.scenarios import runner

    with trace_context(trace_id):
        return runner.run_isolated(scenario, spans=spans, metrics=True)


def _pool_processes(pool: ProcessPoolExecutor) -> list:
    """The pool's worker processes.

    ``ProcessPoolExecutor`` has no public handle on them before Python
    3.14; they are needed to name a dead worker and to terminate the
    pool on stop.
    """
    return list(pool._processes.values())


def _dead_workers(processes) -> str:
    """Name the (reaped) worker processes that died on their own."""
    dead = [process for process in processes
            if process.exitcode not in (None, 0, -signal.SIGTERM)]
    return ", ".join(
        f"pid {process.pid} "
        + (f"killed by {signal.Signals(-process.exitcode).name}"
           if process.exitcode < 0 else f"exit code {process.exitcode}")
        for process in dead) or "unknown"


def _jsonify(value):
    """Recursively convert numpy containers into JSON-clean values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


class ReproServer:
    """The serving process: routes, work queue, streams, metrics.

    Args:
        host / port: bind address (port 0 picks a free port; the bound
            port is readable as :attr:`port` after :meth:`start`).
        queue_size: bound of the job queue — submissions beyond it are
            answered 503 (backpressure, not unbounded buffering).
        workers: job worker processes, forked once in :meth:`start`
            (so a workload registered after that is not visible to
            jobs); stream advances run on the event loop itself.
        per_workload: max jobs of any single workload running at once
            (a cohort-heavy estimation job cannot starve quick
            calibration runs).
        max_body_bytes: request-body size cap (413 beyond it).
        registry: the :class:`~repro.telemetry.MetricsRegistry` to
            meter into.  None (the default) adopts the process-active
            registry when it is enabled (``REPRO_METRICS=1``) and
            otherwise builds a private enabled one — the front door
            always meters itself — installing it process-wide for the
            server's lifetime so engine-core histograms from job runs
            land in the same scrape (restored on :meth:`stop`).
        collect_interval_s: period of the runtime collector task (RSS,
            GC counts, event-loop lag, queue depth).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 queue_size: int = 16, workers: int = 2,
                 per_workload: int = 2,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 registry: "MetricsRegistry | None" = None,
                 collect_interval_s: float = 5.0) -> None:
        if queue_size < 1 or workers < 1 or per_workload < 1:
            raise ValueError(
                "queue_size, workers and per_workload must be >= 1")
        if collect_interval_s <= 0.0:
            raise ValueError("collect_interval_s must be > 0")
        self.host = host
        self.port = port
        self.queue_size = queue_size
        self.workers = workers
        self.per_workload = per_workload
        self.max_body_bytes = max_body_bytes
        self.collect_interval_s = collect_interval_s
        self.registry = registry
        self._installed_registry = False
        self._previous_registry: "MetricsRegistry | None" = None
        self._m: "dict[str, Any] | None" = None
        self._jobs: "dict[str, _Job]" = {}
        self._streams: "dict[str, _Stream]" = {}
        self._counter = 0
        self._queue: "asyncio.Queue[_Job] | None" = None
        self._semaphores: "dict[str, asyncio.Semaphore]" = {}
        self._tasks: "list[asyncio.Task]" = []
        self._server: "asyncio.base_events.Server | None" = None
        self._job_pool: "ProcessPoolExecutor | None" = None
        self._handlers: "set[asyncio.Task]" = set()
        #: Each connection handler waiting for a request, mapped to the
        #: callback that ends its read (:meth:`_read_request_by_deadline`).
        self._reading: "dict[asyncio.Task, Any]" = {}
        self._stopping = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the worker + collector tasks."""
        if self.registry is None:
            active = get_metrics_registry()
            self.registry = (active if active.enabled
                             else MetricsRegistry())
        if get_metrics_registry() is not self.registry:
            self._previous_registry = set_metrics_registry(self.registry)
            self._installed_registry = True
        self._build_instruments()
        # fork before the listener binds: workers inherit no socket
        await self._fork_job_pool()
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._tasks = [asyncio.create_task(self._worker(i))
                       for i in range(self.workers)]
        self._tasks.append(asyncio.create_task(self._collector()))
        self._collect_runtime()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        _LOG.info("serving on %s:%d (queue=%d workers=%d)", self.host,
                  self.port, self.queue_size, self.workers)

    async def stop(self) -> None:
        """Close the listener, answer open requests, end the workers.

        Connections waiting for a request are closed at once (one
        partly received is answered 408); long-polls are woken and
        answered with the job's current status, and every response from
        here on closes its connection.  Requests still open after a
        short grace are cancelled (on Python >= 3.12 ``wait_closed``
        waits for every handler).  Every job worker process is
        terminated and reaped.
        """
        if self._server is not None:
            self._stopping = True
            self._server.close()
            loop = asyncio.get_running_loop()
            for expire in self._reading.values():
                # a timer, like the deadline it brings forward (see
                # _read_request_by_deadline)
                loop.call_later(0.0, expire)
            for job in self._jobs.values():
                job.finished.set()
            if self._handlers:
                __, pending = await asyncio.wait(
                    self._handlers, timeout=_SHUTDOWN_GRACE_S)
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.wait(pending)
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        if self._job_pool is not None:
            for process in _pool_processes(self._job_pool):
                process.terminate()
            # the pool's manager sees the workers die and reaps them
            self._job_pool.shutdown(wait=True, cancel_futures=True)
            self._job_pool = None
        if self._installed_registry:
            set_metrics_registry(self._previous_registry)
            self._installed_registry = False

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- bookkeeping -----------------------------------------------------

    def _build_instruments(self) -> None:
        """Register the server's instrument families on the registry."""
        registry = self.registry
        self._m = {
            "connections": registry.counter(
                "repro_serve_connections_total",
                "Connections accepted; requests_total over it is the "
                "requests each connection carried."),
            "requests": registry.counter(
                "repro_serve_requests_total",
                "Requests served, by method, endpoint and status class.",
                ("method", "endpoint", "code_class")),
            "request_seconds": registry.histogram(
                "repro_serve_request_seconds",
                "Request latency, by method and endpoint.",
                ("method", "endpoint")),
            "jobs": registry.counter(
                "repro_serve_jobs_total",
                "Job lifecycle events, by workload and outcome.",
                ("workload", "outcome")),
            "jobs_inflight": registry.gauge(
                "repro_serve_jobs_inflight",
                "Jobs currently executing, by workload.",
                ("workload",)),
            "queue_depth": registry.gauge(
                "repro_serve_queue_depth",
                "Jobs waiting in the bounded work queue."),
            "job_queue_seconds": registry.histogram(
                "repro_serve_job_queue_seconds",
                "Job time from submit to worker start, by workload.",
                ("workload",)),
            "job_run_seconds": registry.histogram(
                "repro_serve_job_run_seconds",
                "Job time from worker start to done or failed, by "
                "workload.", ("workload",)),
            "streams_opened": registry.counter(
                "repro_serve_streams_opened_total",
                "Streams opened, by workload.", ("workload",)),
            "streams_closed": registry.counter(
                "repro_serve_streams_closed_total",
                "Streams explicitly closed."),
            "streams_open": registry.gauge(
                "repro_serve_streams_open",
                "Streams currently open."),
            "readings": registry.counter(
                "repro_serve_readings_total",
                "Readings (cells x samples) pushed into live streams, "
                "by workload.", ("workload",)),
            "advance_seconds": registry.histogram(
                "repro_serve_stream_advance_seconds",
                "Stream advance time inside a push, by workload.",
                ("workload",)),
            "rss": registry.gauge(
                "repro_process_resident_memory_bytes",
                "Resident set size of the serving process."),
            "gc": registry.gauge(
                "repro_python_gc_collections",
                "Cumulative garbage collections, by generation.",
                ("generation",)),
            "loop_lag": registry.gauge(
                "repro_serve_event_loop_lag_seconds",
                "Observed event-loop scheduling lag over the last "
                "collector period."),
        }

    @staticmethod
    def _endpoint_pattern(path: str) -> str:
        """Normalize a path to its route pattern (ids become ``*``)."""
        parts = [part for part in path.split("/") if part]
        return "/" + "/".join(parts[:1] + [
            "*" if index % 2 == 0 else part
            for index, part in enumerate(parts[1:])])

    def _account_request(self, method: str, path: str, status: int,
                         elapsed_s: float) -> None:
        """Record one finished request's count and latency."""
        endpoint = self._endpoint_pattern(path)
        self._m["requests"].labels(
            method=method, endpoint=endpoint,
            code_class=f"{status // 100}xx").inc()
        self._m["request_seconds"].labels(
            method=method, endpoint=endpoint).observe(elapsed_s)

    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}-{self._counter:04d}"

    def metrics(self) -> dict:
        """The ``GET /metrics`` JSON payload: counters plus live gauges.

        The flat ``counters`` dict is *derived* from the registry's
        instrument series (summed over status class where the legacy
        key did not distinguish), so the JSON and Prometheus views of
        the same server always agree.
        """
        counters: "dict[str, int]" = {}
        if self._m is not None:
            for labels, series in self._m["requests"].items():
                key = (f"requests.{labels['method']} "
                       f"{labels['endpoint']}")
                counters[key] = counters.get(key, 0) + int(series.value)
            for labels, series in self._m["jobs"].items():
                key = ("jobs.rejected"
                       if labels["outcome"] == "rejected"
                       else f"jobs.{labels['outcome']}."
                            f"{labels['workload']}")
                counters[key] = counters.get(key, 0) + int(series.value)
            for labels, series in self._m["streams_opened"].items():
                counters[f"streams.opened.{labels['workload']}"] = \
                    int(series.value)
            closed = self._m["streams_closed"].value
            if closed:
                counters["streams.closed"] = int(closed)
            readings = sum(series.value for __, series
                           in self._m["readings"].items())
            if readings:
                counters["readings.pushed"] = int(readings)
        return {
            "counters": dict(sorted(counters.items())),
            "queue_depth": (self._queue.qsize()
                            if self._queue is not None else 0),
            "jobs": {status: sum(1 for job in self._jobs.values()
                                 if job.status == status)
                     for status in ("queued", "running", "done",
                                    "failed")},
            "open_streams": len(self._streams),
        }

    # -- runtime collectors ----------------------------------------------

    def _collect_runtime(self) -> None:
        """Refresh the process-level gauges (RSS, GC, queue depth)."""
        from repro.telemetry import gc_collection_counts, rss_bytes

        self._m["rss"].set(rss_bytes())
        for generation, collections in enumerate(gc_collection_counts()):
            self._m["gc"].labels(generation=str(generation)) \
                .set(collections)
        if self._queue is not None:
            self._m["queue_depth"].set(self._queue.qsize())
        self._m["streams_open"].set(len(self._streams))

    async def _collector(self) -> None:
        """Periodically refresh runtime gauges and event-loop lag."""
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(self.collect_interval_s)
            lag = max(0.0, loop.time() - before - self.collect_interval_s)
            self._m["loop_lag"].set(lag)
            self._collect_runtime()

    # -- job execution ---------------------------------------------------

    async def _fork_job_pool(self) -> None:
        """Install a new job process pool with every worker forked.

        The first submit makes a fork-context pool fork all ``workers``
        processes at once, so no fork happens under traffic (except to
        replace a pool a dead worker broke).  The new pool is installed
        before the no-op round trip is awaited, so concurrent callers
        see it at once.
        """
        from repro.scenarios.runner import fork_context

        pool = ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=fork_context(),
                                   initializer=_init_job_worker)
        ready = pool.submit(int)
        self._job_pool = pool
        await asyncio.wrap_future(ready)

    async def _in_job_process(self, job: _Job, spans: bool):
        """Run ``job`` in a worker process: ``(result, spans, snapshot)``.

        A worker that dies (killed, crashed) breaks the whole pool:
        every job running in it at that moment fails with an error
        naming the dead worker, and a new pool is forked for the jobs
        after it.  A job that finds the pool already broken waits for
        the new one instead of failing.
        """
        while True:
            pool = self._job_pool
            try:
                future = pool.submit(_job_entry, job.scenario,
                                     job.trace_id, spans)
            except BrokenProcessPool:
                if self._job_pool is pool:
                    await self._fork_job_pool()
                continue
            processes = _pool_processes(pool)
            try:
                return await asyncio.wrap_future(future)
            except BrokenProcessPool:
                # shutdown joins the manager, which reaps every worker,
                # so their exit codes are final
                await asyncio.to_thread(pool.shutdown)
                if self._job_pool is pool:
                    await self._fork_job_pool()
                raise BrokenProcessPool(
                    f"job worker died ({_dead_workers(processes)})"
                ) from None

    async def _worker(self, index: int) -> None:
        """Drain the job queue under the per-workload concurrency cap."""
        while True:
            job = await self._queue.get()
            semaphore = self._semaphores.setdefault(
                job.scenario.workload,
                asyncio.Semaphore(self.per_workload))
            async with semaphore:
                await self._run_job(job)
            self._queue.task_done()

    async def _run_job(self, job: _Job) -> None:
        """Run one job in a worker process and settle its status.

        The job runs under its *submitting* request's trace id, so its
        engine spans and histogram exemplars correlate with the
        front-door request; the worker's spans are replayed onto this
        process's recorder and its metrics merged into the registry.
        """
        workload = job.scenario.workload
        job.status = "running"
        started = time.perf_counter()
        recorder = get_recorder()
        inflight = self._m["jobs_inflight"].labels(workload=workload)
        inflight.inc()
        try:
            with trace_context(job.trace_id), \
                    recorder.span("serve.job", workload=workload,
                                  job_id=job.job_id):
                self._m["job_queue_seconds"].labels(
                    workload=workload).observe(started - job.submitted_s)
                try:
                    job.result, spans, snapshot = \
                        await self._in_job_process(job, recorder.enabled)
                except Exception as error:
                    job.error = f"{type(error).__name__}: {error}"
                else:
                    for record in spans or ():
                        recorder.record_span(record)
                    self.registry.merge_snapshot(snapshot)
                job.status = "failed" if job.error else "done"
                self._m["jobs"].labels(workload=workload,
                                       outcome=job.status).inc()
                if job.error:
                    _LOG.warning("job %s failed: %s", job.job_id,
                                 job.error)
                self._m["job_run_seconds"].labels(
                    workload=workload).observe(
                        time.perf_counter() - started)
        finally:
            inflight.dec()
            self._m["queue_depth"].set(self._queue.qsize())
            job.finished.set()

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Serve requests on one connection until it closes.

        Each request is routed under a fresh trace id.  HTTP/1.1 keeps
        the connection open unless the request says ``Connection:
        close``; HTTP/1.0 closes it unless the request says
        ``keep-alive``.  A refused request (400, 408, 413, 431) closes
        it after the server has read what the client still sends.
        """
        task = asyncio.current_task()
        self._handlers.add(task)
        self._m["connections"].inc()
        try:
            keep_alive = True
            while keep_alive and not self._stopping:
                try:
                    request = await self._read_request_by_deadline(
                        reader, writer)
                except _HttpError as error:
                    # parse-stage failures (oversized body, bad request
                    # line, a stalled request) still deserve a proper
                    # status response
                    await self._write_response(
                        writer, error.status, {"error": error.message},
                        keep_alive=False)
                    await _discard_unread(reader, writer)
                    return
                if request is None:
                    return
                method, path, query, body, keep_alive = request
                await self._respond(writer, method, path, query, body,
                                    keep_alive and not reader.at_eof())
        except ConnectionError:
            pass
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request_by_deadline(self, reader: asyncio.StreamReader,
                                        writer: asyncio.StreamWriter):
        """:meth:`_read_request` within :data:`_READ_DEADLINE_S`.

        The deadline is a timer on the loop, not a task per request:
        when it fires it stops reading the socket and ends the stream,
        so the reader sees what has arrived.  Nothing at all means an
        idle connection (None: closed silently); part of a request is
        answered 408.  A timer runs after the socket reads the loop
        queued before it, so no byte reaches the ended stream.
        :meth:`stop` brings every pending deadline forward to now.
        """
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            writer.transport.pause_reading()
            reader.feed_eof()

        task = asyncio.current_task()
        deadline = asyncio.get_running_loop().call_later(
            _READ_DEADLINE_S, expire)
        self._reading[task] = expire
        try:
            return await self._read_request(reader)
        except asyncio.IncompleteReadError:
            if expired:
                raise _HttpError(
                    408, f"request incomplete after {_READ_DEADLINE_S} s"
                ) from None
            return None     # the client left mid-request
        finally:
            deadline.cancel()
            del self._reading[task]

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; None for an ended connection.

        Returns ``(method, path, query, body, keep_alive)``; a request
        the stream ended in the middle of raises
        ``asyncio.IncompleteReadError``.
        """
        line = await _read_line(reader, 400, "request line")
        if not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: "dict[str, str]" = {}
        for count in itertools.count():
            raw = await _read_line(reader, 431, "header line")
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise asyncio.IncompleteReadError(raw, None)
            if count == MAX_HEADERS:
                raise _HttpError(431, f"more than {MAX_HEADERS} headers")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _HttpError(400, f"invalid Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > self.max_body_bytes:
            raise _HttpError(
                413, f"body of {length} bytes exceeds the "
                     f"{self.max_body_bytes}-byte cap")
        body = await reader.readexactly(length) if length else b""
        tokens = {token.strip() for token
                  in headers.get("connection", "").lower().split(",")}
        keep_alive = ("close" not in tokens
                      if parts[2:] == ["HTTP/1.1"]
                      else "keep-alive" in tokens)
        split = urlsplit(target)
        query = {key: values[-1]
                 for key, values in parse_qs(split.query).items()}
        return method, split.path, query, body, keep_alive

    async def _respond(self, writer: asyncio.StreamWriter, method: str,
                       path: str, query: dict, body: bytes,
                       keep_alive: bool) -> None:
        """Route one request under a fresh trace id and answer it."""
        with trace_context() as trace_id:
            started = time.perf_counter()
            recorder = get_recorder()
            with recorder.span("serve.request", method=method, path=path):
                try:
                    status, payload = await self._route(
                        method, path, query, body)
                except _HttpError as error:
                    status = error.status
                    payload = {"error": error.message}
                except Exception as error:  # pragma: no cover - guard
                    status = 500
                    payload = {"error": f"{type(error).__name__}: {error}"}
                    _LOG.exception("unhandled error on %s %s", method,
                                   path)
            self._account_request(method, path, status,
                                  time.perf_counter() - started)
            await self._write_response(
                writer, status, payload,
                keep_alive=keep_alive and not self._stopping,
                extra_headers={"X-Trace-Id": trace_id})

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, payload, keep_alive: bool,
                              extra_headers: "dict | None" = None
                              ) -> None:
        if isinstance(payload, _Text):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(_jsonify(payload)).encode()
            content_type = "application/json"
        text = _STATUS_TEXT.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {text}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n")
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += ("Connection: keep-alive\r\n\r\n" if keep_alive
                 else "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            data = json.loads(body)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"invalid JSON body: {error}")
        if not isinstance(data, dict):
            raise _HttpError(400, "JSON body must be an object")
        return data

    def _scenario_from(self, body: bytes):
        from repro.scenarios import Scenario

        try:
            return Scenario.from_dict(self._json_body(body))
        except (KeyError, ValueError) as error:
            raise _HttpError(400, f"invalid scenario: {error}")

    # -- routing ---------------------------------------------------------

    async def _route(self, method: str, path: str, query: dict,
                     body: bytes):
        """Dispatch one request; returns ``(status, payload)``."""
        parts = [part for part in path.split("/") if part]
        if parts == ["healthz"]:
            return self._get_only(method) or (200, {
                "status": "ok", "queue_depth": self._queue.qsize()})
        if parts == ["workloads"]:
            from repro.scenarios.cli import workload_rows

            return self._get_only(method) or (
                200, {"workloads": workload_rows()})
        if parts == ["metrics"]:
            self._get_only(method)
            exposition = query.get("format")
            if exposition == "prometheus":
                self._collect_runtime()
                return 200, _Text(self.registry.render_prometheus(),
                                  PROMETHEUS_CONTENT_TYPE)
            if exposition not in (None, "json"):
                raise _HttpError(
                    400, f"unknown format {exposition!r} "
                         "(use 'json' or 'prometheus')")
            return 200, self.metrics()
        if parts == ["scenarios"]:
            if method != "POST":
                raise _HttpError(405, "use POST /scenarios")
            return self._submit_job(self._scenario_from(body))
        if len(parts) >= 2 and parts[0] == "scenarios":
            return await self._route_job(method, parts[1], parts[2:],
                                         query)
        if parts == ["streams"]:
            if method != "POST":
                raise _HttpError(405, "use POST /streams")
            return self._open_stream(self._scenario_from(body))
        if len(parts) >= 2 and parts[0] == "streams":
            return await self._route_stream(method, parts[1],
                                            parts[2:], query, body)
        raise _HttpError(404, f"no route for {path!r}")

    @staticmethod
    def _get_only(method: str):
        if method != "GET":
            raise _HttpError(405, "read-only endpoint: use GET")
        return None

    # -- job routes ------------------------------------------------------

    def _submit_job(self, scenario):
        from repro.telemetry import current_trace_id

        job = _Job(job_id=self._next_id("job"), scenario=scenario,
                   trace_id=current_trace_id())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self._m["jobs"].labels(workload=scenario.workload,
                                   outcome="rejected").inc()
            raise _HttpError(
                503, f"work queue full ({self.queue_size} jobs); "
                     f"retry later")
        self._jobs[job.job_id] = job
        self._m["jobs"].labels(workload=scenario.workload,
                               outcome="submitted").inc()
        self._m["queue_depth"].set(self._queue.qsize())
        return 202, job.describe()

    @staticmethod
    def _wait_s(query: dict) -> float:
        """The ``?wait=`` long-poll seconds, clamped to the cap."""
        raw = query.get("wait")
        if raw is None:
            return 0.0
        try:
            wait_s = float(raw)
        except ValueError:
            wait_s = math.nan
        if not (math.isfinite(wait_s) and wait_s >= 0.0):
            raise _HttpError(
                400, f"wait must be a finite number of seconds >= 0, "
                     f"got {raw!r}")
        return min(wait_s, MAX_WAIT_S)

    async def _route_job(self, method: str, job_id: str,
                         rest: "list[str]", query: dict):
        job = self._jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        self._get_only(method)
        if not rest:
            wait_s = self._wait_s(query)
            if wait_s > 0.0 and not job.finished.is_set():
                try:
                    await asyncio.wait_for(job.finished.wait(), wait_s)
                except asyncio.TimeoutError:
                    pass
            return 200, job.describe()
        if rest == ["result"]:
            if job.status != "done":
                raise _HttpError(
                    409, f"job {job_id} is {job.status}"
                         + (f": {job.error}" if job.error else ""))
            from repro.scenarios import ScenarioRun

            run = ScenarioRun(scenario=job.scenario, result=job.result)
            traces = query.get("traces") in ("1", "true")
            return 200, run.to_dict(include_traces=traces)
        raise _HttpError(404, f"no route for job {job_id}/{rest[0]}")

    # -- stream routes ---------------------------------------------------

    def _open_stream(self, scenario):
        from repro.serve.session import StreamSession

        try:
            session = StreamSession.from_scenario(scenario)
        except (KeyError, ValueError) as error:
            raise _HttpError(400, str(error))
        stream = _Stream(stream_id=self._next_id("stream"),
                         scenario=scenario, session=session)
        self._streams[stream.stream_id] = stream
        self._m["streams_opened"].labels(
            workload=scenario.workload).inc()
        self._m["streams_open"].set(len(self._streams))
        return 201, stream.describe()

    async def _route_stream(self, method: str, stream_id: str,
                            rest: "list[str]", query: dict,
                            body: bytes):
        stream = self._streams.get(stream_id)
        if stream is None:
            raise _HttpError(404, f"unknown stream {stream_id!r}")
        if not rest:
            if method == "DELETE":
                del self._streams[stream_id]
                self._m["streams_closed"].inc()
                self._m["streams_open"].set(len(self._streams))
                return 200, {"stream_id": stream_id,
                             "status": "closed"}
            self._get_only(method)
            return 200, stream.describe()
        if rest == ["readings"]:
            if method != "POST":
                raise _HttpError(405, "use POST .../readings")
            return self._push_readings(stream, body)
        self._get_only(method)
        if rest == ["result"]:
            if not stream.session.done:
                raise _HttpError(
                    409, f"stream {stream_id} has "
                         f"{stream.session.remaining} samples left")
            from repro.scenarios import ScenarioRun

            run = ScenarioRun(scenario=stream.scenario,
                              result=stream.session.result())
            traces = query.get("traces") in ("1", "true")
            return 200, run.to_dict(include_traces=traces)
        if rest == ["snapshot"]:
            return 200, stream.session.export_state()
        raise _HttpError(404,
                         f"no route for stream {stream_id}/{rest[0]}")

    def _push_readings(self, stream: _Stream, body: bytes):
        data = self._json_body(body)
        count = data.get("count")
        if count is not None and (not isinstance(count, int)
                                  or isinstance(count, bool)
                                  or count < 1):
            raise _HttpError(400, "count must be a positive integer")
        if stream.session.done:
            raise _HttpError(
                409, f"stream {stream.stream_id} is exhausted")
        # On the loop: a small advance costs less than a hop to a
        # thread, and nothing else can touch the session meanwhile.
        workload = stream.session.workload
        with get_recorder().span("serve.advance",
                                 stream_id=stream.stream_id,
                                 workload=workload):
            started = time.perf_counter()
            update = stream.session.advance(count)
            self._m["advance_seconds"].labels(workload=workload).observe(
                time.perf_counter() - started)
        pushed = update.n_samples * stream.session.n_channels
        self._m["readings"].labels(workload=workload).inc(pushed)
        return 200, {
            "stream_id": stream.stream_id,
            "start": update.start,
            "stop": update.stop,
            "cursor": stream.session.cursor,
            "done": stream.session.done,
            "time_h": update.time_h,
            "values": update.values,
        }


async def _run_server(server: ReproServer) -> None:
    """Start and serve until interrupted (the CLI entry)."""
    await server.start()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


class ServerThread:
    """A :class:`ReproServer` on a background thread (tests, examples).

    Owns a private event loop; :meth:`start` returns once the listener
    is bound (so :attr:`port` is real), :meth:`stop` tears everything
    down.  Usable as a context manager.
    """

    def __init__(self, **kwargs: Any) -> None:
        self.server = ReproServer(**kwargs)
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        return self.server.port

    @property
    def host(self) -> str:
        """The bind host."""
        return self.server.host

    def start(self) -> "ServerThread":
        """Boot the loop thread and wait for the listener to bind."""
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._main,
                                        name="repro-serve",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("server failed to start within 30 s")
        return self

    def _main(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            await self.server.start()
            self._started.set()

        self._loop.run_until_complete(boot())
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def stop(self) -> None:
        """Stop the loop and join the thread."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
