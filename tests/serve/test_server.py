"""The async front door end to end: jobs, streams, errors, metrics.

Boots the real server (:class:`ServerThread` — the production asyncio
loop on a background thread) and drives it through the stdlib
:class:`ServeClient` over real sockets.  The central gate: the result
fetched from a job and the result assembled by pushing readings through
a stream are both byte-identical JSON to the batch runner's artifact
for the same scenario.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.scenarios import Scenario, ScenarioRun, run_scenario
from repro.scenarios.protocols import WORKLOADS, register_workload
from repro.serve import ServeClient, ServeError, ServerThread

MONITOR_SCENARIO = Scenario(
    workload="monitor", name="serve-wear", seed=11,
    spec={"cohort": {"sensor": "glucose/this-work",
                     "analyte": "glucose", "n_patients": 2},
          "duration_h": 6.0, "sample_period_s": 600.0})

ESTIMATION_SCENARIO = Scenario(
    workload="estimation", name="serve-reconstruct", seed=11,
    spec={"cohort": {"sensor": "glucose/this-work",
                     "analyte": "glucose", "n_patients": 2},
          "duration_h": 6.0, "sample_period_s": 600.0})

CALIBRATION_SCENARIO = Scenario(
    workload="calibration", name="serve-calib", seed=7,
    spec={"sensors": ["glucose/this-work"], "n_blanks": 2,
          "n_replicates": 2})


def batch_artifact(scenario: Scenario, traces: bool = True) -> dict:
    """The batch runner's artifact, pushed through a JSON round trip."""
    run = ScenarioRun(scenario=scenario, result=run_scenario(scenario))
    return json.loads(json.dumps(run.to_dict(include_traces=traces)))


def max_difference(a, b) -> float:
    """Largest absolute numeric difference between two JSON payloads.

    Streamed accumulation may differ from batch by summation-order
    ulps; the serving contract bounds the gap at 1e-9.  Non-numeric
    leaves must match exactly.
    """
    if isinstance(a, dict):
        assert set(a) == set(b), set(a) ^ set(b)
        return max((max_difference(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list):
        assert len(a) == len(b), (len(a), len(b))
        return max((max_difference(x, y) for x, y in zip(a, b)),
                   default=0.0)
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b)
    assert a == b, (a, b)
    return 0.0


@pytest.fixture(scope="module")
def client():
    """One shared server for the whole module, port auto-picked."""
    with ServerThread(port=0, queue_size=16, workers=2) as thread:
        yield ServeClient(thread.host, thread.port)


class TestServiceEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0

    def test_workloads_carry_streaming_flags(self, client):
        rows = {row["name"]: row for row in client.workloads()}
        assert rows["monitor"]["streaming"] is True
        assert rows["estimation"]["streaming"] is True
        assert rows["calibration"]["streaming"] is False
        assert rows["therapy"]["streaming"] is False

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/centrifuge")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/healthz", {})
        assert excinfo.value.status == 405
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/scenarios")
        assert excinfo.value.status == 405


class TestJobs:
    def test_submitted_job_reproduces_batch_artifact(self, client):
        job = client.submit(MONITOR_SCENARIO.to_dict())
        assert job["status"] == "queued"
        assert job["workload"] == "monitor"
        done = client.wait_for_job(job["job_id"])
        assert done["status"] == "done"
        remote = client.result(job["job_id"], traces=True)
        assert remote == batch_artifact(MONITOR_SCENARIO)

    def test_non_streaming_workloads_still_run_as_jobs(self, client):
        job = client.submit(CALIBRATION_SCENARIO.to_dict())
        client.wait_for_job(job["job_id"])
        remote = client.result(job["job_id"])
        assert remote == batch_artifact(CALIBRATION_SCENARIO,
                                        traces=False)

    def test_invalid_scenario_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"workload": "monitor"})
        assert excinfo.value.status == 400
        assert "invalid scenario" in str(excinfo.value)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.status("job-9999")
        assert excinfo.value.status == 404

    def test_result_of_unfinished_job_is_409(self, client):
        """A queued/failed job has no result to fetch."""
        bad = Scenario(workload="monitor", name="bad", seed=1,
                       spec={"cohort": {"sensor": "glucose/this-work",
                                        "analyte": "glucose",
                                        "n_patients": 1},
                             "duration_h": -1.0})
        job = client.submit(bad.to_dict())
        with pytest.raises(ServeError) as excinfo:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                client.result(job["job_id"])
                time.sleep(0.05)
        assert excinfo.value.status == 409


class TestStreams:
    def test_stream_result_equals_job_result(self, client):
        """Pushed reading blocks assemble the batch-identical artifact."""
        stream = client.create_stream(ESTIMATION_SCENARIO.to_dict())
        assert stream["cursor"] == 0
        assert stream["n_samples"] == 36
        pushed = 0
        while True:
            update = client.push_readings(stream["stream_id"], count=7)
            pushed += update["stop"] - update["start"]
            assert update["cursor"] == pushed
            assert len(update["time_h"]) == update["stop"] - update["start"]
            assert set(update["values"]) >= {
                "filtered_concentration_molar", "filtered_std_molar"}
            if update["done"]:
                break
        assert pushed == 36
        remote = client.stream_result(stream["stream_id"], traces=True)
        assert max_difference(remote,
                              batch_artifact(ESTIMATION_SCENARIO)) \
            <= 1e-9
        client.delete_stream(stream["stream_id"])

    def test_snapshot_endpoint_returns_resume_point(self, client):
        from repro.serve import StreamSession

        stream = client.create_stream(MONITOR_SCENARIO.to_dict())
        client.push_readings(stream["stream_id"], count=13)
        snapshot = client.stream_snapshot(stream["stream_id"])
        assert snapshot["workload"] == "monitor"
        assert snapshot["cursor"] == 13
        # the fetched snapshot is a working resume point
        resumed = StreamSession.restore(
            StreamSession.from_scenario(MONITOR_SCENARIO).plan,
            snapshot)
        resumed.advance(None)
        assert resumed.result().mard.shape == (2,)
        client.delete_stream(stream["stream_id"])

    def test_result_before_exhaustion_is_409(self, client):
        stream = client.create_stream(MONITOR_SCENARIO.to_dict())
        client.push_readings(stream["stream_id"], count=1)
        with pytest.raises(ServeError) as excinfo:
            client.stream_result(stream["stream_id"])
        assert excinfo.value.status == 409
        assert "35 samples left" in str(excinfo.value)
        client.delete_stream(stream["stream_id"])

    def test_push_after_exhaustion_is_409(self, client):
        stream = client.create_stream(MONITOR_SCENARIO.to_dict())
        client.push_readings(stream["stream_id"])   # run to the end
        with pytest.raises(ServeError) as excinfo:
            client.push_readings(stream["stream_id"], count=1)
        assert excinfo.value.status == 409
        client.delete_stream(stream["stream_id"])

    def test_bad_count_is_400(self, client):
        stream = client.create_stream(MONITOR_SCENARIO.to_dict())
        for bad in (0, -3, 1.5, True, "7"):
            with pytest.raises(ServeError) as excinfo:
                client._request(
                    "POST",
                    f"/streams/{stream['stream_id']}/readings",
                    {"count": bad})
            assert excinfo.value.status == 400
        client.delete_stream(stream["stream_id"])

    def test_non_streaming_workload_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.create_stream(CALIBRATION_SCENARIO.to_dict())
        assert excinfo.value.status == 400
        assert "does not support" in str(excinfo.value)

    def test_deleted_stream_is_404(self, client):
        stream = client.create_stream(MONITOR_SCENARIO.to_dict())
        client.delete_stream(stream["stream_id"])
        with pytest.raises(ServeError) as excinfo:
            client.stream_status(stream["stream_id"])
        assert excinfo.value.status == 404


class TestMetrics:
    def test_counters_accumulate_per_endpoint_and_workload(self, client):
        client.health()
        job = client.submit(MONITOR_SCENARIO.to_dict())
        client.wait_for_job(job["job_id"])
        metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["requests.GET /healthz"] >= 1
        assert counters["requests.POST /scenarios"] >= 1
        assert counters["requests.GET /scenarios/*"] >= 1
        assert counters["jobs.submitted.monitor"] >= 1
        assert counters["jobs.done.monitor"] >= 1
        assert metrics["jobs"]["done"] >= 1

    def test_readings_counter_counts_channel_readings(self, client):
        before = client.metrics()["counters"].get("readings.pushed", 0)
        stream = client.create_stream(MONITOR_SCENARIO.to_dict())
        client.push_readings(stream["stream_id"], count=10)
        after = client.metrics()["counters"]["readings.pushed"]
        assert after - before == 10 * 2   # 10 samples x 2 channels
        client.delete_stream(stream["stream_id"])

    def test_requests_are_spans_on_recorder_counts_on_registry(
            self, client):
        from repro.telemetry import (
            InMemoryRecorder,
            parse_prometheus,
            set_recorder,
        )

        recorder = InMemoryRecorder()
        previous = set_recorder(recorder)
        try:
            client.health()
        finally:
            set_recorder(previous)
        assert "serve.request" in {record.name
                                    for record in recorder.spans}
        samples = parse_prometheus(client.metrics_prometheus())
        assert any(
            sample["name"] == "repro_serve_requests_total"
            and sample["labels"]["endpoint"] == "/healthz"
            and sample["value"] >= 1 for sample in samples)


class _SleepyResult:
    def summary(self) -> str:
        return "slept"

    def summary_row(self) -> dict:
        return {"slept": 1}

    def to_dict(self, include_traces: bool = False) -> dict:
        return {"slept": 1}


class _SleepyWorkload:
    """Blocks in run() until the test releases it (backpressure probe)."""

    name = "sleepy-serve-test"
    plan_type = dict
    release = threading.Event()

    def build_plan(self, spec, seed):
        return dict(spec)

    def run(self, plan):
        if not _SleepyWorkload.release.wait(timeout=30.0):
            raise TimeoutError("never released")
        return _SleepyResult()

    def run_scalar(self, plan):
        return self.run(plan)

    def summarize(self, result):
        return result.summary()

    def describe(self) -> str:
        return "test-only blocking workload"

    def example_spec(self) -> dict:
        return {}


class TestBackpressure:
    def test_full_queue_answers_503(self):
        """Submissions beyond queue_size bounce instead of buffering."""
        register_workload(_SleepyWorkload())
        scenario = Scenario(workload=_SleepyWorkload.name,
                            name="sleepy", seed=1, spec={}).to_dict()
        try:
            with ServerThread(port=0, queue_size=1,
                              workers=1) as thread:
                client = ServeClient(thread.host, thread.port)
                first = client.submit(scenario)
                # wait until the worker picked job 1 off the queue
                deadline = time.monotonic() + 10.0
                while (client.status(first["job_id"])["status"]
                       != "running"):
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                client.submit(scenario)   # fills the single queue slot
                with pytest.raises(ServeError) as excinfo:
                    client.submit(scenario)
                assert excinfo.value.status == 503
                assert "queue full" in str(excinfo.value)
                rejected = client.metrics()["counters"]["jobs.rejected"]
                assert rejected >= 1
                _SleepyWorkload.release.set()
                client.wait_for_job(first["job_id"])
        finally:
            _SleepyWorkload.release.set()
            WORKLOADS.pop(_SleepyWorkload.name, None)


class TestRequestLimits:
    def test_oversized_body_is_413(self):
        with ServerThread(port=0, max_body_bytes=1024) as thread:
            client = ServeClient(thread.host, thread.port)
            with pytest.raises(ServeError) as excinfo:
                client._request("POST", "/scenarios",
                                {"blob": "x" * 4096})
            assert excinfo.value.status == 413

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_400(self, client, length):
        import socket

        with socket.create_connection((client.host, client.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /scenarios HTTP/1.1\r\n"
                         b"Content-Length: " + length + b"\r\n\r\n{}")
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"invalid Content-Length" in response

    def test_malformed_json_is_400(self, client):
        import http.client as http_client

        connection = http_client.HTTPConnection(
            client.host, client.port, timeout=10)
        try:
            connection.request(
                "POST", "/scenarios", body=b"{not json",
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            assert b"invalid JSON" in response.read()
        finally:
            connection.close()
