"""A small stdlib client for the serve front door.

Wraps the HTTP endpoints of :mod:`repro.serve.server` behind plain
method calls (``http.client`` only — usable from tests, CI smoke jobs
and examples without any dependency).  Every method returns the parsed
JSON payload; non-2xx responses raise :class:`ServeError` carrying the
status code and the server's error payload.

Quickstart::

    from repro.serve import ServeClient, ServerThread

    with ServerThread() as thread:
        client = ServeClient(thread.host, thread.port)
        job = client.submit(scenario.to_dict())
        client.wait_for_job(job["job_id"])
        result = client.result(job["job_id"])
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any


class ServeError(RuntimeError):
    """A non-2xx response from the serve front door.

    Attributes:
        status: HTTP status code of the response.
        payload: the parsed JSON error payload (``{"error": ...}``).
    """

    def __init__(self, status: int, payload: dict) -> None:
        message = (payload.get("error", "")
                   if isinstance(payload, dict) else str(payload))
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class ServeClient:
    """Typed access to one running serve front door.

    Args:
        host / port: where the server listens.
        timeout_s: per-request socket timeout.
    """

    def __init__(self, host: str, port: int,
                 timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def _request(self, method: str, path: str,
                 body: "dict | None" = None) -> dict:
        """One request/response cycle; raises :class:`ServeError`."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s)
        try:
            payload = (json.dumps(body).encode()
                       if body is not None else None)
            headers = ({"Content-Type": "application/json"}
                       if payload is not None else {})
            connection.request(method, path, body=payload,
                               headers=headers)
            response = connection.getresponse()
            data = json.loads(response.read() or b"{}")
            if response.status >= 400:
                raise ServeError(response.status, data)
            return data
        finally:
            connection.close()

    # -- service ---------------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def workloads(self) -> "list[dict]":
        """``GET /workloads`` — the registered workload rows."""
        return self._request("GET", "/workloads")["workloads"]

    def metrics(self) -> dict:
        """``GET /metrics`` — counters, queue depth, live gauges."""
        return self._request("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        """``GET /metrics?format=prometheus`` — raw text exposition.

        Returns the exposition body (format 0.0.4) as a string; feed
        it to :func:`repro.telemetry.parse_prometheus` to validate.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s)
        try:
            connection.request("GET", "/metrics?format=prometheus")
            response = connection.getresponse()
            body = response.read()
            if response.status >= 400:
                raise ServeError(response.status,
                                 json.loads(body or b"{}"))
            return body.decode("utf-8")
        finally:
            connection.close()

    def wait_until_healthy(self, timeout_s: float = 30.0) -> dict:
        """Poll ``/healthz`` until the server answers (boot helper)."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                return self.health()
            except (OSError, ServeError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    # -- jobs ------------------------------------------------------------

    def submit(self, scenario: dict) -> dict:
        """``POST /scenarios`` — enqueue a scenario envelope."""
        return self._request("POST", "/scenarios", scenario)

    def status(self, job_id: str, wait_s: float = 0.0) -> dict:
        """``GET /scenarios/{id}`` — one job's lifecycle status.

        With ``wait_s > 0`` this is a long-poll: the server holds the
        request until the job is done or failed, or ``wait_s`` elapses
        (clamped to its ``MAX_WAIT_S``), then answers the same payload.
        """
        suffix = f"?wait={wait_s:.3f}" if wait_s > 0.0 else ""
        return self._request("GET", f"/scenarios/{job_id}{suffix}")

    def result(self, job_id: str, traces: bool = False) -> dict:
        """``GET /scenarios/{id}/result`` — the replayable artifact."""
        suffix = "?traces=1" if traces else ""
        return self._request("GET", f"/scenarios/{job_id}/result{suffix}")

    def wait_for_job(self, job_id: str,
                     timeout_s: float = 300.0) -> dict:
        """Long-poll a job until it is done (raises on failure/timeout).

        Each :meth:`status` call waits at most half the socket timeout,
        so a held request never outlives its connection.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            status = self.status(job_id, wait_s=max(
                0.0, min(remaining, self.timeout_s / 2.0)))
            if status["status"] == "done":
                return status
            if status["status"] == "failed":
                raise ServeError(500, {"error": status["error"]})
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['status']} after "
                    f"{timeout_s} s")

    # -- streams ---------------------------------------------------------

    def create_stream(self, scenario: dict) -> dict:
        """``POST /streams`` — open an incremental session."""
        return self._request("POST", "/streams", scenario)

    def stream_status(self, stream_id: str) -> dict:
        """``GET /streams/{id}`` — cursor and completion state."""
        return self._request("GET", f"/streams/{stream_id}")

    def push_readings(self, stream_id: str,
                      count: "int | None" = None) -> dict:
        """``POST /streams/{id}/readings`` — advance by ``count``.

        ``None`` runs the stream to completion in one call; the
        response carries the incremental per-sample outputs of the
        advanced block.
        """
        body: "dict[str, Any]" = {}
        if count is not None:
            body["count"] = count
        return self._request("POST", f"/streams/{stream_id}/readings",
                             body)

    def stream_result(self, stream_id: str,
                      traces: bool = False) -> dict:
        """``GET /streams/{id}/result`` — batch-identical artifact."""
        suffix = "?traces=1" if traces else ""
        return self._request("GET",
                             f"/streams/{stream_id}/result{suffix}")

    def stream_snapshot(self, stream_id: str) -> dict:
        """``GET /streams/{id}/snapshot`` — the resume point."""
        return self._request("GET", f"/streams/{stream_id}/snapshot")

    def delete_stream(self, stream_id: str) -> dict:
        """``DELETE /streams/{id}`` — drop a stream's state."""
        return self._request("DELETE", f"/streams/{stream_id}")
