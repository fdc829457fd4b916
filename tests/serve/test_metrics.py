"""The serving metrics surface: exposition, correlation, collectors.

Boots the real server and gates the observability contracts:
``GET /metrics`` emits valid exposition format 0.0.4 of the server's
own registry (round-tripped through
:func:`~repro.telemetry.parse_prometheus`), every response carries an
``X-Trace-Id`` that also lands in the span trace and the latency
histogram's exemplar, runtime collectors report real RSS/GC levels,
and the process's active registry is never touched.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.scenarios import Scenario
from repro.serve import ServeClient, ServerThread
from repro.telemetry import (
    InMemoryRecorder,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    get_metrics_registry,
    parse_prometheus,
    set_metrics_registry,
    set_recorder,
)

from .test_server import scraped

SCENARIO = Scenario(
    workload="monitor", name="serve-metrics", seed=11,
    spec={"cohort": {"sensor": "glucose/this-work",
                     "analyte": "glucose", "n_patients": 2},
          "duration_h": 6.0, "sample_period_s": 600.0})


@pytest.fixture()
def served():
    """A private server + recorder pair, fully restored on teardown."""
    recorder = InMemoryRecorder()
    previous = set_recorder(recorder)
    registry = MetricsRegistry()
    try:
        with ServerThread(port=0, queue_size=16, workers=2,
                          registry=registry) as thread:
            with ServeClient(thread.host, thread.port) as client:
                yield client, registry, recorder
    finally:
        set_recorder(previous)


def _run_one_job(client: ServeClient) -> dict:
    job = client.submit(SCENARIO.to_dict())
    client.wait_for_job(job["job_id"])
    return client.status(job["job_id"])


class TestPrometheusEndpoint:
    def test_round_trips_validator(self, served):
        client, registry, __ = served
        _run_one_job(client)
        samples = parse_prometheus(client.metrics())
        names = {sample["name"] for sample in samples}
        assert "repro_serve_requests_total" in names
        assert "repro_serve_request_seconds_bucket" in names
        assert "repro_serve_jobs_total" in names
        assert "repro_process_resident_memory_bytes" in names
        # executor metrics from the job flow into the same scrape
        assert "repro_core_execute_seconds_bucket" in names

    def test_content_type_and_status(self, served):
        """Every scrape is Prometheus text: the query is ignored, so an
        old scrape config's ``?format=prometheus`` still works."""
        client, __, __ = served
        for target in ("/metrics", "/metrics?format=prometheus",
                       "/metrics?format=json"):
            connection = http.client.HTTPConnection(
                client.host, client.port, timeout=30)
            try:
                connection.request("GET", target)
                response = connection.getresponse()
                body = response.read()
            finally:
                connection.close()
            assert response.status == 200, target
            assert response.getheader("Content-Type") \
                == PROMETHEUS_CONTENT_TYPE, target
            assert parse_prometheus(body.decode("utf-8")), target

    def test_job_and_request_counts(self, served):
        client, __, __ = served
        _run_one_job(client)
        for outcome in ("submitted", "done"):
            assert scraped(client, "repro_serve_jobs_total",
                           workload="monitor", outcome=outcome) == 1
        assert scraped(client, "repro_serve_requests_total",
                       method="GET") >= 1
        assert scraped(client, "repro_serve_queue_depth") == 0

    def test_runtime_collectors_report_levels(self, served):
        client, registry, __ = served
        client.metrics()  # forces a collection pass
        rss = registry.gauge("repro_process_resident_memory_bytes")
        assert rss.labels().value > 1e6  # a python process is > 1 MB
        snapshot = registry.snapshot()
        gc_series = snapshot["instruments"][
            "repro_python_gc_collections"]["series"]
        assert {row["labels"]["generation"] for row in gc_series} \
            == {"0", "1", "2"}


class TestTraceCorrelation:
    def test_every_response_carries_a_trace_id(self, served):
        client, __, __ = served
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        trace_id = response.getheader("X-Trace-Id")
        assert trace_id and len(trace_id) == 16

    def test_advance_span_carries_the_push_trace(self, served):
        """A stream advance runs inside its push request, so its span
        carries the push's ``X-Trace-Id``."""
        client, __, recorder = served
        stream = client.create_stream(SCENARIO.to_dict())
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30)
        try:
            connection.request(
                "POST", f"/streams/{stream['stream_id']}/readings",
                body=json.dumps({"count": 6}),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.status == 200
        (advance,) = [span for span in recorder.spans
                      if span.name == "serve.advance"]
        assert advance.attrs["stream_id"] == stream["stream_id"]
        assert advance.attrs["trace_id"] \
            == response.getheader("X-Trace-Id")

    def test_push_chunk_spans_nest_under_the_advance(self, served):
        """The segment walk opens its spans on the active recorder, so
        a traced push shows its segment and chunk under
        ``serve.advance``, in the push's trace."""
        client, __, recorder = served
        stream = client.create_stream(SCENARIO.to_dict())
        client.push_readings(stream["stream_id"], count=6)
        (advance,) = [span for span in recorder.spans
                      if span.name == "serve.advance"]
        (segment,) = [span for span in recorder.spans
                      if span.name == "core.segment"]
        (chunk,) = [span for span in recorder.spans
                    if span.name == "core.run_chunk"]
        assert (segment.depth, chunk.depth) == (advance.depth + 1,
                                                advance.depth + 2)
        for inner in (segment, chunk):
            assert inner.attrs["trace_id"] == advance.attrs["trace_id"]
            assert advance.start_s <= inner.start_s
            assert inner.start_s + inner.duration_s \
                <= advance.start_s + advance.duration_s

    def test_exemplar_and_span_share_the_job_trace(self, served):
        client, registry, recorder = served
        _run_one_job(client)
        hist = registry.histogram("repro_serve_request_seconds",
                                  labels=["method", "endpoint"])
        exemplars = {series.exemplar["trace_id"]
                     for __, series in hist.items()
                     if series.exemplar is not None}
        assert exemplars  # at least one request recorded an exemplar
        span_traces = {span.attrs.get("trace_id")
                       for span in recorder.spans
                       if span.name == "serve.request"}
        assert exemplars <= span_traces

    def test_job_spans_carry_the_submit_trace(self, served):
        client, __, recorder = served
        _run_one_job(client)
        job_spans = [span for span in recorder.spans
                     if span.name == "serve.job"]
        assert job_spans
        assert all(span.attrs.get("trace_id") for span in job_spans)
        submit_traces = {span.attrs["trace_id"]
                         for span in recorder.spans
                         if span.name == "serve.request"
                         and span.attrs["method"] == "POST"}
        assert {span.attrs["trace_id"] for span in job_spans} \
            == submit_traces
        # the engine spans were recorded in the job worker process and
        # replayed here under the same trace
        executes = [span for span in recorder.spans
                    if span.name == "core.execute"]
        assert executes
        assert {span.attrs["trace_id"] for span in executes} \
            == submit_traces

    def test_replay_runs_under_the_fetch_trace(self, served):
        """``?traces=1`` re-runs a done job under the fetching request's
        trace, in a ``serve.replay`` span; it is no job, so no job
        span, counter or histogram sees it."""
        client, registry, recorder = served
        job_id = _run_one_job(client)["job_id"]
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30)
        try:
            connection.request("GET", f"/scenarios/{job_id}/result"
                                      "?traces=1")
            response = connection.getresponse()
            artifact = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 200
        assert "time_h" in artifact["result"]
        trace_id = response.getheader("X-Trace-Id")
        (replay,) = [span for span in recorder.spans
                     if span.name == "serve.replay"]
        assert replay.attrs["trace_id"] == trace_id
        assert replay.attrs["job_id"] == job_id
        (job,) = [span for span in recorder.spans
                  if span.name == "serve.job"]
        assert job.attrs["trace_id"] != trace_id
        executes = [span for span in recorder.spans
                    if span.name == "core.execute"
                    and span.attrs["trace_id"] == trace_id]
        assert len(executes) == 1
        for outcome in ("submitted", "done"):
            assert scraped(client, "repro_serve_jobs_total",
                           workload="monitor", outcome=outcome) == 1
        for name in ("repro_serve_job_queue_seconds",
                     "repro_serve_job_run_seconds"):
            (series,) = [series for __, series in registry.histogram(
                name, labels=["workload"]).items()]
            assert series.count == 1


class TestJobTimings:
    def test_queue_and_run_histograms(self, served):
        client, registry, recorder = served
        _run_one_job(client)
        (job_span,) = [span for span in recorder.spans
                       if span.name == "serve.job"]
        for name in ("repro_serve_job_queue_seconds",
                     "repro_serve_job_run_seconds"):
            (series,) = [series for labels, series in registry.histogram(
                name, labels=["workload"]).items()
                if labels == {"workload": "monitor"}]
            assert series.count == 1
            assert series.exemplar["trace_id"] \
                == job_span.attrs["trace_id"]
        samples = parse_prometheus(client.metrics())
        counts = {sample["name"]: sample["value"] for sample in samples
                  if sample["name"].endswith("_count")}
        assert counts["repro_serve_job_queue_seconds_count"] == 1
        assert counts["repro_serve_job_run_seconds_count"] == 1


class TestConnectionsAndAdvance:
    def test_calls_from_one_client_share_one_connection(self, served):
        client, registry, __ = served
        for __ in range(5):
            client.health()
        samples = parse_prometheus(client.metrics())
        values = {sample["name"]: sample["value"] for sample in samples
                  if not sample["labels"]}
        requests = sum(sample["value"] for sample in samples
                       if sample["name"] == "repro_serve_requests_total")
        assert values["repro_serve_connections_total"] == 1
        assert requests == 5

    def test_advance_histogram_carries_the_push_trace(self, served):
        client, registry, recorder = served
        stream = client.create_stream(SCENARIO.to_dict())
        client.push_readings(stream["stream_id"], count=6)
        (push,) = [span for span in recorder.spans
                   if span.name == "serve.request"
                   and span.attrs["path"].endswith("/readings")]
        (series,) = [series for labels, series in registry.histogram(
            "repro_serve_stream_advance_seconds",
            labels=["workload"]).items()
            if labels == {"workload": "monitor"}]
        assert series.count == 1
        assert series.exemplar["trace_id"] == push.attrs["trace_id"]
        (advance,) = [span for span in recorder.spans
                      if span.name == "serve.advance"]
        assert series.sum <= advance.duration_s
        samples = parse_prometheus(client.metrics())
        assert any(
            sample["name"] == "repro_serve_stream_advance_seconds_count"
            and sample["labels"] == {"workload": "monitor"}
            and sample["value"] == 1 for sample in samples)


class TestRegistryPerServer:
    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["start-order", "reverse-order"])
    def test_concurrent_servers_count_apart(self, reverse):
        """Two servers at once each count only their own job, and the
        process-active registry is restored whichever stops first."""
        before = get_metrics_registry()
        threads = []
        try:
            for __ in range(2):
                threads.append(ServerThread(port=0, workers=1).start())
            for thread in threads:
                with ServeClient(thread.host, thread.port) as client:
                    _run_one_job(client)
            for thread in threads:
                with ServeClient(thread.host, thread.port) as client:
                    assert scraped(client, "repro_serve_jobs_total",
                                   workload="monitor",
                                   outcome="submitted") == 1
        finally:
            for thread in reversed(threads) if reverse else threads:
                thread.stop()
        assert get_metrics_registry() is before


class _CountingRegistry(MetricsRegistry):
    """A registry that counts every instrument lookup made on it."""

    def __init__(self) -> None:
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


class TestProcessRegistryUntouched:
    def test_server_meters_only_into_its_own_registry(self):
        """A job, a traces replay, a stream push, a traced stream result
        and a scrape leave the process's active registry installed and
        unused; every number lands in the server's registry."""
        installed = _CountingRegistry()
        previous = set_metrics_registry(installed)
        try:
            with ServerThread(port=0, workers=1) as thread, \
                    ServeClient(thread.host, thread.port) as client:
                assert get_metrics_registry() is installed
                job_id = _run_one_job(client)["job_id"]
                client.result(job_id, traces=True)
                assert get_metrics_registry() is installed
                stream = client.create_stream(SCENARIO.to_dict())
                client.push_readings(stream["stream_id"])
                client.stream_result(stream["stream_id"], traces=True)
                assert get_metrics_registry() is installed
                names = {sample["name"] for sample
                         in parse_prometheus(client.metrics())}
                own = {family.name
                       for family in thread.server.registry.families()}
            assert get_metrics_registry() is installed
            assert installed.calls == 0
        finally:
            set_metrics_registry(previous)
        for family in ("repro_serve_jobs_total",
                       "repro_serve_readings_total",
                       "repro_core_execute_seconds"):
            assert family in own
        assert "repro_core_execute_seconds_bucket" in names
