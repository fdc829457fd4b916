"""The async front door end to end: jobs, streams, errors, metrics.

Boots the real server (:class:`ServerThread` — the production asyncio
loop on a background thread) and drives it through the stdlib
:class:`ServeClient` over real sockets.  The central gate: the result
fetched from a job and the result assembled by pushing readings through
a stream are both byte-identical JSON to the batch runner's artifact
for the same scenario.

Jobs run in forked worker processes, so the test-only workloads below
are registered before the server that runs them starts, and talk to
the test through shared memory made at import.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.scenarios import Scenario, ScenarioRun, run_scenario
from repro.scenarios.protocols import WORKLOADS, register_workload
from repro.scenarios.runner import fork_context
from repro.serve import ServeClient, ServeError, ServerThread
from repro.serve import server as server_module

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
        with ServeClient(thread.host, thread.port) as client:
            yield client


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


class _Release:
    """A cross-process latch the forked job workers poll.

    Shared memory made at import, before any pool forks.  Unlike a
    ``multiprocessing.Event``, whose ``set()`` blocks forever once a
    waiter has been killed, it survives the server terminating a
    worker that waits on it.
    """

    def __init__(self) -> None:
        self._flag = fork_context().RawValue("b", 0)

    def set(self) -> None:
        self._flag.value = 1

    def clear(self) -> None:
        self._flag.value = 0

    def wait(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while not self._flag.value:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)
        return True


class _SleepyWorkload:
    """Blocks in run() until the test releases it (backpressure probe)."""

    name = "sleepy-serve-test"
    plan_type = dict
    release = _Release()

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


_TEST_PID = os.getpid()


class _KillerWorkload(_SleepyWorkload):
    """SIGKILLs the job worker that runs it, recording its pid first."""

    name = "killer-serve-test"
    killed_pid = fork_context().RawValue("i", 0)

    def run(self, plan):
        if os.getpid() == _TEST_PID:
            raise RuntimeError("refusing to kill the test process")
        _KillerWorkload.killed_pid.value = os.getpid()
        os.kill(os.getpid(), signal.SIGKILL)


def _scenario_of(workload) -> dict:
    return Scenario(workload=workload.name, name="probe", seed=1,
                    spec={}).to_dict()


@pytest.fixture()
def sleepy_server():
    """A one-worker server with the (held) sleepy workload registered."""
    _SleepyWorkload.release.clear()
    register_workload(_SleepyWorkload())
    thread = ServerThread(port=0, queue_size=4, workers=1).start()
    client = ServeClient(thread.host, thread.port)
    try:
        yield thread, client
    finally:
        _SleepyWorkload.release.set()
        thread.stop()
        client.close()
        WORKLOADS.pop(_SleepyWorkload.name, None)


def _raw_get(client: ServeClient, target: str) -> bytes:
    """One raw GET; the whole response, read to EOF (10 s cap)."""
    return _raw_request(client, f"GET {target} HTTP/1.1\r\n"
                                "Connection: close\r\n\r\n".encode())


def _raw_request(client: ServeClient, request: bytes) -> bytes:
    """Send raw request bytes; the whole response, read to EOF (10 s
    cap).  The server closes only after a request that asks it to
    (``Connection: close``) or one it refuses."""
    with socket.create_connection((client.host, client.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    return response


class TestLongPoll:
    def test_one_status_call_waits_for_the_job(self, client):
        job = client.submit(MONITOR_SCENARIO.to_dict())
        assert client.status(job["job_id"], wait_s=30.0)["status"] \
            == "done"

    def test_wait_elapses_with_the_current_status(self, sleepy_server):
        __, client = sleepy_server
        job = client.submit(_scenario_of(_SleepyWorkload))
        began = time.monotonic()
        status = client.status(job["job_id"], wait_s=0.3)
        assert time.monotonic() - began >= 0.3
        assert status["status"] in ("queued", "running")
        _SleepyWorkload.release.set()
        assert client.status(job["job_id"], wait_s=30.0)["status"] \
            == "done"

    def test_wait_above_the_cap_is_clamped(self, sleepy_server,
                                           monkeypatch):
        __, client = sleepy_server
        monkeypatch.setattr(server_module, "MAX_WAIT_S", 0.2)
        job = client.submit(_scenario_of(_SleepyWorkload))
        began = time.monotonic()
        status = client.status(job["job_id"], wait_s=1e6)
        assert time.monotonic() - began < 5.0
        assert status["status"] in ("queued", "running")

    @pytest.mark.parametrize(
        "wait", ["abc", "-1", "-0.5", "nan", "NaN", "inf", "-inf",
                 "1e999", "0x10", "1;2"])
    def test_bad_wait_is_400(self, client, wait):
        """4xx, never a 500 or a hang."""
        job = client.submit(CALIBRATION_SCENARIO.to_dict())
        response = _raw_get(client,
                            f"/scenarios/{job['job_id']}?wait={wait}")
        assert response.startswith(b"HTTP/1.1 400 "), response[:80]
        assert b"wait must be" in response

    def test_unknown_job_with_wait_is_404(self, client):
        response = _raw_get(client, "/scenarios/job-9999?wait=5")
        assert response.startswith(b"HTTP/1.1 404 ")


class TestShutdown:
    def test_stop_answers_an_outstanding_long_poll(self, sleepy_server):
        thread, client = sleepy_server
        job = client.submit(_scenario_of(_SleepyWorkload))
        answers: list = []
        poller = threading.Thread(target=lambda: answers.append(
            client.status(job["job_id"], wait_s=25.0)))
        poller.start()
        time.sleep(0.3)     # the long-poll is now held by the server
        began = time.monotonic()
        thread.stop()
        assert time.monotonic() - began < 2.0
        poller.join(timeout=5.0)
        assert not poller.is_alive()
        assert answers and answers[0]["status"] in ("queued", "running")

    def test_no_worker_process_outlives_stop(self):
        before = set(multiprocessing.active_children())
        thread = ServerThread(port=0, workers=2).start()
        with ServeClient(thread.host, thread.port) as client:
            client.wait_for_job(
                client.submit(MONITOR_SCENARIO.to_dict())["job_id"])
        workers = set(multiprocessing.active_children()) - before
        assert len(workers) == 2
        thread.stop()
        assert not any(process.is_alive() for process in workers)
        assert not workers & set(multiprocessing.active_children())

    def test_killed_worker_fails_only_its_job(self):
        register_workload(_KillerWorkload())
        try:
            with ServerThread(port=0, workers=1) as thread, \
                    ServeClient(thread.host, thread.port) as client:
                job = client.submit(_scenario_of(_KillerWorkload))
                with pytest.raises(ServeError) as excinfo:
                    client.wait_for_job(job["job_id"], timeout_s=30.0)
                killed = _KillerWorkload.killed_pid.value
                assert killed not in (0, _TEST_PID)
                assert f"pid {killed} killed by SIGKILL" \
                    in str(excinfo.value)
                # the rebuilt pool runs the next job
                job = client.submit(MONITOR_SCENARIO.to_dict())
                assert client.wait_for_job(job["job_id"])["status"] \
                    == "done"
                assert client.result(job["job_id"], traces=True) \
                    == batch_artifact(MONITOR_SCENARIO)
        finally:
            WORKLOADS.pop(_KillerWorkload.name, None)


class TestBackpressure:
    def test_full_queue_answers_503(self):
        """Submissions beyond queue_size bounce instead of buffering."""
        _SleepyWorkload.release.clear()
        register_workload(_SleepyWorkload())
        scenario = Scenario(workload=_SleepyWorkload.name,
                            name="sleepy", seed=1, spec={}).to_dict()
        try:
            with ServerThread(port=0, queue_size=1,
                              workers=1) as thread, \
                    ServeClient(thread.host, thread.port) as client:
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
        with ServerThread(port=0, max_body_bytes=1024) as thread, \
                ServeClient(thread.host, thread.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client._request("POST", "/scenarios",
                                {"blob": "x" * 4096})
            assert excinfo.value.status == 413

    @pytest.mark.parametrize("request_bytes, status", [
        pytest.param(b"GET /" + b"a" * 100_000 + b" HTTP/1.1\r\n\r\n",
                     400, id="long-request-line"),
        pytest.param(b"GET /healthz HTTP/1.1\r\nX-Long: "
                     + b"a" * 100_000 + b"\r\n\r\n",
                     431, id="long-header-line"),
        pytest.param(b"GET /healthz HTTP/1.1\r\n"
                     + b"X-Many: 1\r\n" * 20_000 + b"\r\n",
                     431, id="too-many-headers"),
        pytest.param(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
                     + b"X-Many: 1\r\n" * (server_module.MAX_HEADERS - 1)
                     + b"\r\n", 200, id="header-cap"),
    ])
    def test_oversized_request_head_is_answered(self, client, caplog,
                                                request_bytes, status):
        """Lines past the stream limit and too many headers get a
        status response, not a dropped connection, and nothing is
        logged as an unhandled error."""
        with caplog.at_level(logging.ERROR):
            response = _raw_request(client, request_bytes)
            assert client.health()["status"] == "ok"
        assert response.startswith(f"HTTP/1.1 {status} ".encode())
        assert not caplog.records

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_400(self, client, length):
        import socket

        with socket.create_connection((client.host, client.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /scenarios HTTP/1.1\r\n"
                         b"Connection: close\r\n"
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


#: The read deadline the protocol tests shrink the server's to [s].
DEADLINE_S = 0.3


@pytest.fixture()
def short_deadline(monkeypatch):
    """The server's read deadline cut to :data:`DEADLINE_S`."""
    monkeypatch.setattr(server_module, "_READ_DEADLINE_S", DEADLINE_S)


def _connect(client: ServeClient) -> socket.socket:
    return socket.create_connection((client.host, client.port),
                                    timeout=10)


def _read_response(sock: socket.socket) -> "tuple[int, dict, bytes]":
    """One response off a raw socket: status, headers, body."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, f"connection closed mid-response: {data!r}"
        data += chunk
    head, __, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {name.strip().lower(): value.strip()
               for name, __, value in (line.partition(":")
                                       for line in lines)}
    length = int(headers["content-length"])
    while len(body) < length:
        chunk = sock.recv(4096)
        assert chunk, "connection closed mid-body"
        body += chunk
    assert len(body) == length, "bytes after the response body"
    return int(status_line.split()[1]), headers, body


def _closed(sock: socket.socket) -> bool:
    """True if the next read of ``sock`` is the server's EOF."""
    return sock.recv(4096) == b""


class TestKeepAlive:
    def test_two_requests_on_one_socket(self, client):
        with _connect(client) as sock:
            for __ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                status, headers, body = _read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize("request_bytes", [
        pytest.param(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
                     id="http11-close"),
        pytest.param(b"GET /healthz HTTP/1.0\r\n\r\n", id="http10"),
    ])
    def test_close_is_answered_then_eof(self, client, request_bytes):
        with _connect(client) as sock:
            sock.sendall(request_bytes)
            status, headers, __ = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert _closed(sock)

    def test_http10_keep_alive_is_honoured(self, client):
        with _connect(client) as sock:
            for __ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.0\r\n"
                             b"Connection: keep-alive\r\n\r\n")
                status, headers, __ = _read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"

    @pytest.mark.parametrize("request_bytes, status", [
        pytest.param(b"NONSENSE\r\n\r\n", 400, id="bad-request-line"),
        pytest.param(b"POST /scenarios HTTP/1.1\r\n"
                     b"Content-Length: 999999999\r\n\r\n", 413,
                     id="oversized-body"),
        pytest.param(b"GET /healthz HTTP/1.1\r\n"
                     + b"X-Many: 1\r\n" * (server_module.MAX_HEADERS + 1)
                     + b"\r\n", 431, id="too-many-headers"),
    ])
    def test_refusal_closes_a_kept_alive_connection(self, client,
                                                    request_bytes, status):
        with _connect(client) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_response(sock)[0] == 200
            sock.sendall(request_bytes)
            got, headers, __ = _read_response(sock)
            sock.shutdown(socket.SHUT_WR)   # ends the server's linger
            assert got == status
            assert headers["connection"] == "close"
            assert _closed(sock)


class TestReadDeadline:
    def test_idle_connection_closes_at_the_deadline(self, client,
                                                    short_deadline):
        began = time.monotonic()
        with _connect(client) as sock:
            assert _closed(sock)    # no status: just the EOF
        assert DEADLINE_S <= time.monotonic() - began < DEADLINE_S + 5.0

    def test_kept_alive_connection_closes_at_the_deadline(
            self, client, short_deadline):
        with _connect(client) as sock:
            began = time.monotonic()
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_response(sock)[0] == 200
            assert _closed(sock)
        assert DEADLINE_S <= time.monotonic() - began < DEADLINE_S + 5.0

    @pytest.mark.parametrize("partial", [
        pytest.param(b"GET /heal", id="request-line"),
        pytest.param(b"GET /healthz HTTP/1.1\r\nX-Probe: 1\r\n",
                     id="no-blank-line"),
        pytest.param(b"POST /scenarios HTTP/1.1\r\n"
                     b"Content-Length: 100\r\n\r\n{\"workload\":",
                     id="short-body"),
    ])
    def test_partial_request_is_408(self, client, short_deadline, caplog,
                                    partial):
        with caplog.at_level(logging.ERROR):
            began = time.monotonic()
            with _connect(client) as sock:
                sock.sendall(partial)
                status, headers, body = _read_response(sock)
                elapsed = time.monotonic() - began
                assert _closed(sock)
            assert client.health()["status"] == "ok"
        assert status == 408
        assert headers["connection"] == "close"
        assert b"incomplete" in body
        assert DEADLINE_S <= elapsed < DEADLINE_S + 5.0
        assert not caplog.records
