"""ServeClient over persistent connections: threads, reconnects, stop.

One client keeps one HTTP/1.1 connection per calling thread.  These
tests drive a live :class:`ServerThread` and count the connections it
accepted on its private registry: threads never share a connection, a
connection the server closed while idle is replaced without applying a
request twice, and stopping the server does not wait on idle
connections.
"""

from __future__ import annotations

import gc
import logging
import sys
import threading
import time

import pytest

from repro.serve import ServeClient, ServeError, ServerThread
from repro.serve import framing
from repro.serve import server as server_module
from repro.telemetry import MetricsRegistry

from .test_server import (
    ESTIMATION_SCENARIO,
    MONITOR_SCENARIO,
    batch_artifact,
    max_difference,
    scraped,
)


@pytest.fixture()
def served():
    """A private server, its client and its registry."""
    registry = MetricsRegistry()
    with ServerThread(port=0, workers=2, registry=registry) as thread:
        with ServeClient(thread.host, thread.port) as client:
            yield client, registry


def _connections(registry: MetricsRegistry) -> float:
    return registry.counter("repro_serve_connections_total") \
        .labels().value


class TestSharedClient:
    def test_threads_mixing_jobs_and_pushes(self, served):
        """Four threads on one client: every job and stream result is
        right, and each thread held exactly one connection."""
        client, registry = served
        job_batch = batch_artifact(MONITOR_SCENARIO)
        stream_batch = batch_artifact(ESTIMATION_SCENARIO)
        results: "dict[int, tuple]" = {}
        errors: list = []

        def work(index: int) -> None:
            try:
                job = client.submit(MONITOR_SCENARIO.to_dict())
                stream = client.create_stream(
                    ESTIMATION_SCENARIO.to_dict())["stream_id"]
                cursor = 0
                while True:
                    update = client.push_readings(stream, count=5)
                    assert update["start"] == cursor
                    cursor = update["cursor"]
                    if update["done"]:
                        break
                client.wait_for_job(job["job_id"])
                results[index] = (
                    client.result(job["job_id"], traces=True),
                    client.stream_result(stream, traces=True))
            except BaseException as error:  # reported by the test
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert sorted(results) == [0, 1, 2, 3]
        for job_artifact, stream_artifact in results.values():
            assert job_artifact == job_batch
            assert max_difference(stream_artifact, stream_batch) <= 1e-9
        assert _connections(registry) == 4


class TestReconnect:
    def test_push_after_idle_close_is_applied_once(self, served,
                                                   monkeypatch):
        client, registry = served
        monkeypatch.setattr(server_module, "_READ_DEADLINE_S", 0.5)
        stream = client.create_stream(MONITOR_SCENARIO.to_dict())
        time.sleep(1.5)     # the server closes the idle connection
        monkeypatch.undo()
        update = client.push_readings(stream["stream_id"], count=5)
        assert (update["start"], update["stop"], update["cursor"]) \
            == (0, 5, 5)
        assert client.stream_status(stream["stream_id"])["cursor"] == 5
        assert scraped(client, "repro_serve_readings_total") == 5 * 2
        assert _connections(registry) == 2

    def test_refused_request_drops_the_connection(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_BODY_BYTES", 1024)
        registry = MetricsRegistry()
        with ServerThread(port=0, workers=1,
                          registry=registry) as thread:
            with ServeClient(thread.host, thread.port) as client:
                client.health()
                with pytest.raises(ServeError) as excinfo:
                    client.submit({"blob": "x" * 4096})
                assert excinfo.value.status == 413
                assert client.health()["status"] == "ok"
                assert _connections(registry) == 2

    def test_close_then_reuse(self, served):
        client, registry = served
        client.health()
        client.close()
        client.health()
        assert _connections(registry) == 2


class TestStop:
    def test_stop_does_not_wait_on_an_idle_connection(self, caplog):
        thread = ServerThread(port=0, workers=1).start()
        client = ServeClient(thread.host, thread.port)
        try:
            client.health()     # leaves the connection open and idle
            with caplog.at_level(logging.ERROR):
                began = time.monotonic()
                thread.stop()
                elapsed = time.monotonic() - began
                gc.collect()    # a pending task logs when destroyed
            with pytest.raises(OSError):
                client.health()
        finally:
            thread.stop()
            client.close()
        assert elapsed < 0.5 * server_module._SHUTDOWN_GRACE_S
        assert not caplog.records
