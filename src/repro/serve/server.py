"""The async front door: scenarios and live streams over HTTP.

A small server on nothing but the standard library
(``asyncio.start_server`` plus the HTTP/1.1 subset of
:mod:`repro.serve.framing`, no web framework) for the two serving
modes of :mod:`repro.serve`:

* **Jobs** — ``POST /scenarios`` queues a scenario on a bounded work
  queue (503 when full) under a per-workload concurrency limit, and a
  pre-forked worker process runs it; ``GET /scenarios/{id}`` reads its
  status (``?wait=<s>`` long-polls it) and ``.../result`` its
  replayable artifact: the summary the server keeps, or with
  ``?traces=1`` the traces of a re-run of the seed-resolved scenario.
* **Streams** — ``POST /streams`` opens an incremental session,
  ``POST /streams/{id}/readings`` advances it by a block of readings
  and answers the filtered estimates, ``.../snapshot`` and
  ``.../result`` read its resume point and batch-identical artifact.

The server meters itself on its own :mod:`repro.telemetry.metrics`
registry, scraped as Prometheus text on ``GET /metrics``.  Every
request runs under a fresh trace id, echoed as an ``X-Trace-Id``
header and stamped on its spans and latency exemplar;
a job inherits its submitting request's id, and its worker's spans and
metrics are replayed onto the server's recorder and registry.

Endpoint reference: ``docs/serving.md``.  Run it with
``python -m repro serve``; tests drive an in-process
:class:`ServerThread`.
"""

from __future__ import annotations

import asyncio
import collections
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

import numpy as np

from repro.serve.framing import (
    MAX_LINE_BYTES,
    HttpError,
    discard_unread,
    encode_response,
    read_request,
)
from repro.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    get_recorder,
    trace_context,
)

_LOG = logging.getLogger("repro.serve.server")

#: Finished (done or failed) jobs the server keeps for their status and
#: result; past it the oldest is evicted, and its id answers 410.
MAX_FINISHED_JOBS = 32

#: Most streams open at once; opening another is answered 503.
MAX_STREAMS = 64

#: Period of the runtime collector task (RSS, GC counts, event-loop
#: lag, queue depth) [s].
COLLECT_INTERVAL_S = 5.0

#: Longest a ``GET /scenarios/{id}?wait=<s>`` long-poll is held [s];
#: larger waits are clamped to it.
MAX_WAIT_S = 30.0

#: Longest a connection may take to deliver one request [s], from when
#: the server starts waiting for its request line until its body is
#: read.  An idle kept-alive connection is closed at it; a request
#: still incomplete at it is answered 408 and its connection closed.
_READ_DEADLINE_S = 10.0

#: Longest :meth:`ReproServer.stop` lets open requests finish [s]
#: before cancelling them.
_SHUTDOWN_GRACE_S = 1.0

#: Longest a stream may go without a request [s]; the collector task
#: closes it after that, and its id answers 404 like a deleted one.
_STREAM_IDLE_S = 600.0


@dataclass
class _Text:
    """A non-JSON response body carrying its own content type."""

    text: str
    content_type: str


@dataclass
class _Job:
    """One submitted scenario run moving through the work queue."""

    job_id: str
    scenario: Any
    status: str = "queued"          # queued -> running -> done | failed
    result: "dict | None" = None    # the artifact, without traces
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
class _Replay:
    """A done job's re-run for ``?traces=1``.  It waits in the work
    queue and runs on a queue worker like a job, so it counts against
    the same bounds, but it is no job."""

    job: _Job
    trace_id: "str | None"          # inherited from the fetch request
    #: Resolved with the artifact with traces, or the error to answer.
    answer: asyncio.Future


@dataclass
class _Stream:
    """One open incremental session."""

    stream_id: str
    scenario: Any
    session: Any
    #: When a request last named the stream (``time.monotonic``).
    used_s: float = field(default_factory=time.monotonic)

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
    """Job-process initializer: leave signal handling to the server,
    which terminates its workers itself (inherited SIGINT/SIGTERM
    handlers would turn a Ctrl-C into a traceback in every worker and
    make ``terminate()`` raise instead of exit)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _job_entry(scenario, trace_id: "str | None", spans: bool,
               traces: bool):
    """Job-process entry: one scenario under the given request's trace.

    Returns ``(artifact, spans, metrics_snapshot)``: the run's
    :func:`_artifact`, and the spans and metrics of
    :func:`repro.scenarios.runner.run_isolated`, which the server
    replays and merges.  Only the artifact crosses back to the server,
    never the result object: without ``traces`` the dict the server
    keeps, with them the JSON response body, encoded here rather than
    on the server's event loop.
    """
    from repro.scenarios import runner

    with trace_context(trace_id):
        result, spans, snapshot = runner.run_isolated(
            scenario, spans=spans, metrics=True)
    return _artifact(scenario, result, traces), spans, snapshot


def _pool_processes(pool: ProcessPoolExecutor) -> list:
    """The pool's worker processes (no public handle before Python
    3.14), to name a dead worker and to terminate the pool on stop."""
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


def _json_default(value):
    """NumPy arrays and scalars as JSON values (``json.dumps`` hook)."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _wants_traces(query: dict) -> bool:
    """True if a result request asks for traces (``?traces=1``)."""
    return query.get("traces") in ("1", "true")


def _dumps_by_row(value) -> str:
    """``json.dumps(value, default=_json_default)``, the same text, from
    one encoder call per row of a nested list.

    The C encoder holds the GIL for a whole call, so a thread encoding
    megabytes at once would stall the event loop as long; between rows
    the loop gets its turn.
    """
    if isinstance(value, dict) and all(isinstance(key, str)
                                       for key in value):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dumps_by_row(item)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, list) and value and isinstance(value[0], list):
        return "[" + ", ".join(_dumps_by_row(row) for row in value) + "]"
    return json.dumps(value, default=_json_default)


def _artifact(scenario, result, traces: bool):
    """A run's replayable artifact: the summary dict, or with
    ``traces`` its encoded JSON body (a :class:`_Text` of megabytes,
    so never built on the event loop)."""
    from repro.scenarios import ScenarioRun

    artifact = ScenarioRun(scenario=scenario, result=result).to_dict(
        include_traces=traces)
    if traces:
        return _Text(_dumps_by_row(artifact), "application/json")
    return artifact


def _encode(status: int, payload, keep_alive: bool,
            headers: "dict[str, str] | None" = None) -> bytes:
    """The response carrying ``payload``: JSON, or a :class:`_Text`."""
    if isinstance(payload, _Text):
        return encode_response(status, payload.text.encode("utf-8"),
                               payload.content_type, keep_alive, headers)
    body = json.dumps(payload, default=_json_default).encode()
    return encode_response(status, body, "application/json", keep_alive,
                           headers)


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
        registry: the :class:`~repro.telemetry.MetricsRegistry` to
            meter into.  None (the default) builds a private enabled
            one — the front door always meters itself.  The process's
            active registry is left alone: job workers meter into a
            private one whose snapshot the server merges into this.

    Requests are bounded by the :mod:`repro.serve.framing` limits;
    runtime gauges refresh every :data:`COLLECT_INTERVAL_S`.
    Only the last :data:`MAX_FINISHED_JOBS` finished jobs are kept
    (an evicted one answers 410); at most :data:`MAX_STREAMS` streams
    are open (503 beyond it), and one idle for :data:`_STREAM_IDLE_S`
    is closed.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 queue_size: int = 16, workers: int = 2,
                 per_workload: int = 2,
                 registry: "MetricsRegistry | None" = None) -> None:
        if queue_size < 1 or workers < 1 or per_workload < 1:
            raise ValueError(
                "queue_size, workers and per_workload must be >= 1")
        self.host = host
        self.port = port
        self.queue_size = queue_size
        self.workers = workers
        self.per_workload = per_workload
        self.registry = registry
        self._m: "dict[str, Any] | None" = None
        self._jobs: "dict[str, _Job]" = {}
        #: Finished job ids, oldest first: the eviction order.
        self._finished: "collections.deque[str]" = collections.deque()
        self._streams: "dict[str, _Stream]" = {}
        #: Ids issued so far, per prefix (``job``, ``stream``).
        self._issued: "collections.Counter[str]" = collections.Counter()
        self._queue: "asyncio.Queue[_Job | _Replay] | None" = None
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
            self.registry = MetricsRegistry()
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

    async def serve_forever(self) -> None:
        """Start, serve until cancelled, then stop (the CLI entry)."""
        await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

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
            "streams_evicted": registry.counter(
                "repro_serve_streams_evicted_total",
                "Streams closed after going idle."),
            "streams_rejected": registry.counter(
                "repro_serve_streams_rejected_total",
                "Stream opens refused because the stream cap was "
                "reached."),
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
        # present in a scrape from the start, at 0
        self._m["streams_evicted"].inc(0)
        self._m["streams_rejected"].inc(0)

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
        self._issued[prefix] += 1
        return f"{prefix}-{self._issued[prefix]:04d}"

    def _was_issued(self, prefix: str, raw_id: str) -> bool:
        """True if ``raw_id`` is exactly an id :meth:`_next_id` returned
        for ``prefix``; no set of past ids is kept."""
        issued = self._issued[prefix]
        head, __, digits = raw_id.partition("-")
        # the length check also keeps int() off a 64 KiB digit string
        if (head != prefix or not (digits.isascii() and digits.isdigit())
                or len(digits) > len(f"{issued:04d}")):
            return False
        number = int(digits)
        return 1 <= number <= issued and digits == f"{number:04d}"

    def _retire(self, job: _Job) -> None:
        """Keep a finished job, evicting the oldest beyond
        :data:`MAX_FINISHED_JOBS`."""
        self._finished.append(job.job_id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            evicted = self._jobs.pop(self._finished.popleft())
            self._m["jobs"].labels(workload=evicted.scenario.workload,
                                   outcome="evicted").inc()

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
            await asyncio.sleep(COLLECT_INTERVAL_S)
            lag = max(0.0, loop.time() - before - COLLECT_INTERVAL_S)
            self._m["loop_lag"].set(lag)
            self._evict_idle_streams()
            self._collect_runtime()

    def _evict_idle_streams(self) -> None:
        """Close every stream idle for longer than :data:`_STREAM_IDLE_S`."""
        cutoff = time.monotonic() - _STREAM_IDLE_S
        idle = [stream_id for stream_id, stream in self._streams.items()
                if stream.used_s < cutoff]
        for stream_id in idle:
            del self._streams[stream_id]
            self._m["streams_evicted"].inc()
            _LOG.info("stream %s closed after %.0f s idle", stream_id,
                      _STREAM_IDLE_S)

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

    async def _in_job_process(self, scenario, trace_id: "str | None",
                              spans: bool, traces: bool):
        """Run ``scenario`` in a worker process under ``trace_id``:
        ``(artifact, spans, snapshot)`` from :func:`_job_entry`.

        A worker that dies (killed, crashed) breaks the whole pool:
        every job running in it at that moment fails with an error
        naming the dead worker, and a new pool is forked for the jobs
        after it.  A job that finds the pool already broken waits for
        the new one instead of failing.
        """
        while True:
            pool = self._job_pool
            try:
                future = pool.submit(_job_entry, scenario, trace_id,
                                     spans, traces)
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

    def _absorb(self, spans, snapshot) -> None:
        """Replay a worker's spans onto this process's recorder and merge
        its metrics snapshot into the registry."""
        recorder = get_recorder()
        for record in spans or ():
            recorder.record_span(record)
        self.registry.merge_snapshot(snapshot)

    async def _replay(self, job: _Job) -> _Text:
        """Run a done job again for its artifact with traces (the
        encoded JSON body).

        The job's scenario has its seed resolved (:meth:`_submit_job`),
        so the run reproduces the kept result bit for bit.  The replay
        takes a work-queue slot (503 while the queue is full, as a
        submit gets) and runs on a queue worker under the workload's
        concurrency cap (:meth:`_run_replay`), so fetches add no pool
        work beyond ``workers`` runs at once.
        """
        from repro.telemetry import current_trace_id

        if self._queue.full():
            raise HttpError(
                503, f"work queue full ({self.queue_size} jobs); "
                     f"retry later")
        replay = _Replay(job=job, trace_id=current_trace_id(),
                         answer=asyncio.get_running_loop().create_future())
        self._queue.put_nowait(replay)
        self._m["queue_depth"].set(self._queue.qsize())
        return await replay.answer

    async def _run_replay(self, replay: _Replay) -> None:
        """Run one replay in a worker process and answer its fetch.

        It runs under the fetching request's trace id, inside a
        ``serve.replay`` span, and is no job: no job counter or
        histogram sees it.  A worker dying under the run answers 503.
        A replay whose fetch went away (cancelled) runs nothing.
        """
        if replay.answer.done():
            return
        job = replay.job
        recorder = get_recorder()
        with trace_context(replay.trace_id), \
                recorder.span("serve.replay", workload=job.scenario.workload,
                              job_id=job.job_id):
            try:
                artifact, spans, snapshot = await self._in_job_process(
                    job.scenario, replay.trace_id, recorder.enabled,
                    traces=True)
            except BrokenProcessPool as error:
                outcome = HttpError(503, f"{error}; retry later")
            except Exception as error:
                outcome = error
            else:
                self._absorb(spans, snapshot)
                outcome = None
        self._m["queue_depth"].set(self._queue.qsize())
        if replay.answer.done():
            return
        if outcome is None:
            replay.answer.set_result(artifact)
        else:
            replay.answer.set_exception(outcome)

    async def _worker(self, index: int) -> None:
        """Drain the work queue (jobs and replays) under the per-workload
        concurrency cap."""
        while True:
            item = await self._queue.get()
            replay = isinstance(item, _Replay)
            workload = (item.job if replay else item).scenario.workload
            semaphore = self._semaphores.setdefault(
                workload, asyncio.Semaphore(self.per_workload))
            async with semaphore:
                if replay:
                    await self._run_replay(item)
                else:
                    await self._run_job(item)
            self._queue.task_done()

    async def _run_job(self, job: _Job) -> None:
        """Run one job in a worker process and settle its status.

        The job runs under its *submitting* request's trace id, so its
        engine spans and histogram exemplars correlate with the
        front-door request; the worker's spans are replayed onto this
        process's recorder and its metrics merged into the registry.
        The job keeps the artifact without traces: ``?traces=1`` runs
        it again (:meth:`_replay`).
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
                        await self._in_job_process(
                            job.scenario, job.trace_id, recorder.enabled,
                            traces=False)
                except Exception as error:
                    job.error = f"{type(error).__name__}: {error}"
                else:
                    self._absorb(spans, snapshot)
                job.status = "failed" if job.error else "done"
                self._m["jobs"].labels(workload=workload,
                                       outcome=job.status).inc()
                self._retire(job)
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

        Each request is routed under a fresh trace id; the connection
        stays open while requests ask to keep it alive (the HTTP/1.0
        and 1.1 rules of :mod:`repro.serve.framing`).  A refused request
        (400, 408, 413, 431, 501) closes it after the server has read
        what the client still sends.
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
                except HttpError as error:
                    writer.write(_encode(error.status,
                                         {"error": str(error)},
                                         keep_alive=False))
                    await writer.drain()
                    await discard_unread(reader, writer)
                    return
                if request is None:
                    return
                head, body = request
                keep_alive = head.keep_alive and not reader.at_eof()
                await self._respond(writer, head.method, head.path,
                                    head.query, body, keep_alive)
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
        """:func:`~repro.serve.framing.read_request` within
        :data:`_READ_DEADLINE_S`.

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
            return await read_request(reader)
        except asyncio.IncompleteReadError:
            if expired:
                raise HttpError(
                    408, f"request incomplete after {_READ_DEADLINE_S} s"
                ) from None
            return None     # the client left mid-request
        finally:
            deadline.cancel()
            del self._reading[task]

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
                except HttpError as error:
                    status = error.status
                    payload = {"error": str(error)}
                except Exception as error:  # pragma: no cover - guard
                    status = 500
                    payload = {"error": f"{type(error).__name__}: {error}"}
                    _LOG.exception("unhandled error on %s %s", method,
                                   path)
            self._account_request(method, path, status,
                                  time.perf_counter() - started)
            writer.write(_encode(status, payload,
                                 keep_alive and not self._stopping,
                                 {"X-Trace-Id": trace_id}))
            await writer.drain()

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            data = json.loads(body)
        except (ValueError, RecursionError) as error:  # or not UTF-8
            raise HttpError(400, f"invalid JSON body: {error}")
        if not isinstance(data, dict):
            raise HttpError(400, "JSON body must be an object")
        return data

    def _scenario_from(self, body: bytes):
        from repro.scenarios import Scenario

        try:
            return Scenario.from_dict(self._json_body(body))
        except (KeyError, ValueError) as error:
            raise HttpError(400, f"invalid scenario: {error}")

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
            self._collect_runtime()
            return 200, _Text(self.registry.render_prometheus(),
                              PROMETHEUS_CONTENT_TYPE)
        if parts == ["scenarios"]:
            if method != "POST":
                raise HttpError(405, "use POST /scenarios")
            return self._submit_job(self._scenario_from(body))
        if len(parts) >= 2 and parts[0] == "scenarios":
            return await self._route_job(method, parts[1], parts[2:],
                                         query)
        if parts == ["streams"]:
            if method != "POST":
                raise HttpError(405, "use POST /streams")
            return self._open_stream(self._scenario_from(body))
        if len(parts) >= 2 and parts[0] == "streams":
            return await self._route_stream(method, parts[1],
                                            parts[2:], query, body)
        raise HttpError(404, f"no route for {path!r}")

    @staticmethod
    def _get_only(method: str):
        if method != "GET":
            raise HttpError(405, "read-only endpoint: use GET")
        return None

    # -- job routes ------------------------------------------------------

    def _submit_job(self, scenario):
        """Queue a scenario whose spec decodes; a refused one (400 or
        503) is issued no job id.  A missing seed is drawn here, so the
        job's artifact replays and ``?traces=1`` re-runs the same run."""
        from repro.scenarios import plan_for, spawn_scenario_seeds
        from repro.telemetry import current_trace_id

        if self._queue.full():
            self._m["jobs"].labels(workload=scenario.workload,
                                   outcome="rejected").inc()
            raise HttpError(
                503, f"work queue full ({self.queue_size} jobs); "
                     f"retry later")
        if scenario.seed is None:
            scenario = scenario.with_seed(spawn_scenario_seeds(None, 1)[0])
        try:
            plan_for(scenario)
        except (KeyError, ValueError) as error:
            raise HttpError(400, f"invalid scenario: {error}")
        job = _Job(job_id=self._next_id("job"), scenario=scenario,
                   trace_id=current_trace_id())
        self._queue.put_nowait(job)
        self._jobs[job.job_id] = job
        self._m["jobs"].labels(workload=scenario.workload,
                               outcome="submitted").inc()
        self._m["queue_depth"].set(self._queue.qsize())
        return 202, job.describe()

    @staticmethod
    def _wait_s(query: dict) -> float:
        """The ``?wait=`` long-poll seconds, clamped to the cap."""
        raw = query.get("wait", "0")
        try:
            wait_s = float(raw)
        except ValueError:
            wait_s = math.nan
        if not (math.isfinite(wait_s) and wait_s >= 0.0):
            raise HttpError(
                400, f"wait must be a finite number of seconds >= 0, "
                     f"got {raw!r}")
        return min(wait_s, MAX_WAIT_S)

    async def _route_job(self, method: str, job_id: str,
                         rest: "list[str]", query: dict):
        job = self._jobs.get(job_id)
        if job is None:
            if self._was_issued("job", job_id):
                raise HttpError(
                    410, f"job {job_id} was evicted: only the last "
                         f"{MAX_FINISHED_JOBS} finished jobs are kept")
            raise HttpError(404, f"unknown job {job_id!r}")
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
                raise HttpError(
                    409, f"job {job_id} is {job.status}"
                         + (f": {job.error}" if job.error else ""))
            if _wants_traces(query):
                return 200, await self._replay(job)
            return 200, job.result
        raise HttpError(404, f"no route for job {job_id}/{rest[0]}")

    # -- stream routes ---------------------------------------------------

    def _open_stream(self, scenario):
        from repro.serve.session import StreamSession

        if len(self._streams) >= MAX_STREAMS:
            self._m["streams_rejected"].inc()
            raise HttpError(
                503, f"{MAX_STREAMS} streams open; close one or retry "
                     f"later")
        try:
            session = StreamSession.from_scenario(scenario)
        except (KeyError, ValueError) as error:
            raise HttpError(400, str(error))
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
            raise HttpError(404, f"unknown stream {stream_id!r}")
        stream.used_s = time.monotonic()
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
                raise HttpError(405, "use POST .../readings")
            return self._push_readings(stream, body)
        self._get_only(method)
        if rest == ["result"]:
            if not stream.session.done:
                raise HttpError(
                    409, f"stream {stream_id} has "
                         f"{stream.session.remaining} samples left")
            result = stream.session.result()
            if _wants_traces(query):
                return 200, await asyncio.to_thread(
                    _artifact, stream.scenario, result, True)
            return 200, _artifact(stream.scenario, result, False)
        if rest == ["snapshot"]:
            return 200, stream.session.export_state()
        raise HttpError(404, f"no route for stream {stream_id}/{rest[0]}")

    def _push_readings(self, stream: _Stream, body: bytes):
        data = self._json_body(body)
        unknown = sorted(set(data) - {"count"})
        if unknown:
            raise HttpError(400, f"unknown keys {unknown}; a push body "
                                 'is {"count": n} or {}')
        count = data.get("count")
        if count is not None and (not isinstance(count, int)
                                  or isinstance(count, bool)
                                  or count < 1):
            raise HttpError(400, "count must be a positive integer")
        if stream.session.done:
            raise HttpError(
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


class ServerThread:
    """A :class:`ReproServer` on a background thread (tests, examples).

    Owns a private event loop; :meth:`start` returns once the listener
    is bound (so :attr:`port` is real), :meth:`stop` tears everything
    down.  Usable as a context manager.
    """

    def __init__(self, **kwargs: Any) -> None:
        self.server = ReproServer(**kwargs)
        self.host = self.server.host
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        return self.server.port

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
