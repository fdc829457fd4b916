"""The serving metrics surface: exposition, correlation, collectors.

Boots the real server and gates the observability contracts:
``GET /metrics?format=prometheus`` emits valid exposition format 0.0.4
(round-tripped through :func:`~repro.telemetry.parse_prometheus`),
every response carries an ``X-Trace-Id`` that also lands in the span
trace and the latency histogram's exemplar, runtime collectors report
real RSS/GC levels, and the legacy JSON ``/metrics`` payload stays
derivable from the registry.
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
    parse_prometheus,
    set_recorder,
)

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
        text = client.metrics_prometheus()
        samples = parse_prometheus(text)
        names = {sample["name"] for sample in samples}
        assert "repro_serve_requests_total" in names
        assert "repro_serve_request_seconds_bucket" in names
        assert "repro_serve_jobs_total" in names
        assert "repro_process_resident_memory_bytes" in names
        # executor metrics from the job flow into the same scrape
        assert "repro_core_execute_seconds_bucket" in names

    def test_content_type_and_status(self, served):
        client, __, __ = served
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30)
        try:
            connection.request("GET", "/metrics?format=prometheus")
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        assert response.status == 200
        assert response.getheader("Content-Type") \
            == PROMETHEUS_CONTENT_TYPE
        parse_prometheus(body.decode("utf-8"))

    def test_unknown_format_is_400(self, served):
        client, __, __ = served
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30)
        try:
            connection.request("GET", "/metrics?format=msgpack")
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "format" in payload["error"]

    def test_runtime_collectors_report_levels(self, served):
        client, registry, __ = served
        client.metrics_prometheus()  # forces a collection pass
        rss = registry.gauge("repro_process_resident_memory_bytes")
        assert rss.value > 1e6  # a real python process is > 1 MB
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
        samples = parse_prometheus(client.metrics_prometheus())
        counts = {sample["name"]: sample["value"] for sample in samples
                  if sample["name"].endswith("_count")}
        assert counts["repro_serve_job_queue_seconds_count"] == 1
        assert counts["repro_serve_job_run_seconds_count"] == 1


class TestLegacyJsonMetrics:
    def test_json_payload_derived_from_registry(self, served):
        client, __, __ = served
        _run_one_job(client)
        payload = client.metrics()
        assert payload["counters"]["jobs.submitted.monitor"] == 1
        assert payload["counters"]["jobs.done.monitor"] == 1
        assert any(key.startswith("requests.GET ")
                   for key in payload["counters"])
        assert payload["queue_depth"] == 0


class TestConnectionsAndAdvance:
    def test_calls_from_one_client_share_one_connection(self, served):
        client, registry, __ = served
        for __ in range(5):
            client.health()
        samples = parse_prometheus(client.metrics_prometheus())
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
        samples = parse_prometheus(client.metrics_prometheus())
        assert any(
            sample["name"] == "repro_serve_stream_advance_seconds_count"
            and sample["labels"] == {"workload": "monitor"}
            and sample["value"] == 1 for sample in samples)
