"""The async front door: scenarios and live streams over HTTP.

A deliberately small server built on nothing but the standard library
(``asyncio.start_server`` plus a hand-rolled HTTP/1.1 request reader —
no web framework, matching the repo's no-new-dependencies rule).  It
exposes the two serving modes of :mod:`repro.serve`:

* **Jobs** — submit a scenario envelope (``POST /scenarios``), poll its
  status (``GET /scenarios/{id}``), fetch the replayable result
  artifact (``GET /scenarios/{id}/result``).  Jobs drain through a
  bounded work queue with a per-workload concurrency limit; a full
  queue answers 503 instead of buffering without bound.
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
spans only; every count lives on the registry.

Endpoint reference: ``docs/serving.md``.  Run it with
``python -m repro serve``; tests drive an in-process
:class:`ServerThread`.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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

_STATUS_TEXT = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Routing-level failure carrying an HTTP status and message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


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
    """One open incremental session plus its serialization lock."""

    stream_id: str
    scenario: Any
    session: Any
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)

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
        workers: concurrent job-executing tasks.
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
        self._pool: "ThreadPoolExecutor | None" = None

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
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers + 1,
            thread_name_prefix="repro-serve")
        self._tasks = [asyncio.create_task(self._worker(i))
                       for i in range(self.workers)]
        self._tasks.append(asyncio.create_task(self._collector()))
        self._collect_runtime()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        _LOG.info("serving on %s:%d (queue=%d workers=%d)", self.host,
                  self.port, self.queue_size, self.workers)

    async def stop(self) -> None:
        """Close the listener, cancel workers, release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        if self._pool is not None:
            self._pool.shutdown(wait=False)
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

    async def _worker(self, index: int) -> None:
        """Drain the job queue under the per-workload concurrency cap."""
        from repro.scenarios import run_scenario

        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            semaphore = self._semaphores.setdefault(
                job.scenario.workload,
                asyncio.Semaphore(self.per_workload))
            workload = job.scenario.workload
            async with semaphore:
                job.status = "running"
                recorder = get_recorder()
                inflight = self._m["jobs_inflight"].labels(
                    workload=workload)
                inflight.inc()
                try:
                    # The job runs under its *submitting* request's
                    # trace id, so its engine spans and histogram
                    # exemplars correlate with the front-door request.
                    # run_in_executor does not propagate contextvars;
                    # copy_context().run carries the id into the pool.
                    with trace_context(job.trace_id), \
                            recorder.span("serve.job",
                                          workload=workload,
                                          job_id=job.job_id):
                        context = contextvars.copy_context()
                        try:
                            job.result = await loop.run_in_executor(
                                self._pool, context.run, run_scenario,
                                job.scenario)
                            job.status = "done"
                            self._m["jobs"].labels(
                                workload=workload, outcome="done").inc()
                        except Exception as error:
                            job.status = "failed"
                            job.error = (f"{type(error).__name__}: "
                                         f"{error}")
                            self._m["jobs"].labels(
                                workload=workload,
                                outcome="failed").inc()
                            _LOG.warning("job %s failed: %s",
                                         job.job_id, job.error)
                finally:
                    inflight.dec()
                    self._m["queue_depth"].set(self._queue.qsize())
            self._queue.task_done()

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Read one request, route it under a fresh trace id, respond."""
        try:
            try:
                request = await self._read_request(reader)
            except _HttpError as error:
                # parse-stage failures (oversized body, bad request
                # line) still deserve a proper status response
                await self._write_response(writer, error.status,
                                           {"error": error.message})
                return
            if request is None:
                return
            method, path, query, body = request
            with trace_context() as trace_id:
                started = time.perf_counter()
                recorder = get_recorder()
                with recorder.span("serve.request", method=method,
                                   path=path):
                    try:
                        status, payload = await self._route(
                            method, path, query, body)
                    except _HttpError as error:
                        status = error.status
                        payload = {"error": error.message}
                    except Exception as error:  # pragma: no cover - guard
                        status = 500
                        payload = {
                            "error": f"{type(error).__name__}: {error}"}
                        _LOG.exception("unhandled error on %s %s",
                                       method, path)
                self._account_request(method, path, status,
                                      time.perf_counter() - started)
                await self._write_response(
                    writer, status, payload,
                    extra_headers={"X-Trace-Id": trace_id})
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; None for an empty connection."""
        line = await reader.readline()
        if not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: "dict[str, str]" = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
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
        split = urlsplit(target)
        query = {key: values[-1]
                 for key, values in parse_qs(split.query).items()}
        return method, split.path, query, body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, payload,
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
        head += "Connection: close\r\n\r\n"
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
            return self._route_job(method, parts[1], parts[2:], query)
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

    def _route_job(self, method: str, job_id: str, rest: "list[str]",
                   query: dict):
        job = self._jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        self._get_only(method)
        if not rest:
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
            return await self._push_readings(stream, body)
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
            async with stream.lock:
                return 200, stream.session.export_state()
        raise _HttpError(404,
                         f"no route for stream {stream_id}/{rest[0]}")

    async def _push_readings(self, stream: _Stream, body: bytes):
        data = self._json_body(body)
        count = data.get("count")
        if count is not None and (not isinstance(count, int)
                                  or isinstance(count, bool)
                                  or count < 1):
            raise _HttpError(400, "count must be a positive integer")
        loop = asyncio.get_running_loop()
        async with stream.lock:
            if stream.session.done:
                raise _HttpError(
                    409, f"stream {stream.stream_id} is exhausted")
            recorder = get_recorder()
            with recorder.span("serve.advance",
                               stream_id=stream.stream_id,
                               workload=stream.session.workload):
                # carry the request's trace id into the pool thread
                context = contextvars.copy_context()
                update = await loop.run_in_executor(
                    self._pool, context.run, stream.session.advance,
                    count)
            pushed = update.n_samples * stream.session.n_channels
            self._m["readings"].labels(
                workload=stream.session.workload).inc(pushed)
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
