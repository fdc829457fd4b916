"""A small stdlib client for the serve front door.

Wraps the HTTP endpoints of :mod:`repro.serve.server` behind plain
method calls, framed by :mod:`repro.serve.framing` on a plain socket
(no ``http.client``).  Every method returns the parsed JSON payload;
non-2xx responses raise :class:`ServeError` carrying the status code
and the server's error payload.

Quickstart::

    from repro.serve import ServeClient, ServerThread

    with ServerThread() as thread:
        with ServeClient(thread.host, thread.port) as client:
            job = client.submit(scenario.to_dict())
            client.wait_for_job(job["job_id"])
            result = client.result(job["job_id"])
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any

from repro.serve.framing import encode_request, parse_response_head

#: Bytes asked of the socket per read, and the longest response head
#: the client reads (a longer one is a protocol error).
_RECV_BYTES = 64 * 1024


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


class _Connection:
    """One thread's kept-alive socket to the server, opened lazily."""

    def __init__(self, address: "tuple[str, int]",
                 timeout_s: float) -> None:
        self.address = address
        self.timeout_s = timeout_s
        self.sock: "socket.socket | None" = None
        self.buffer = bytearray()   # the response read so far

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def send(self, request: bytes) -> None:
        """Send one request and wait for the first bytes of its answer;
        ``ConnectionResetError`` if the server closes without one."""
        if self.sock is None:
            self.sock = socket.create_connection(self.address,
                                                 self.timeout_s)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(request)
        first = self.sock.recv(_RECV_BYTES)
        if not first:
            raise ConnectionResetError(
                "server closed the connection without answering")
        self.buffer[:] = first

    def _receive(self, what: str) -> None:
        """Append the next read to the buffer; EOF is an error."""
        data = self.sock.recv(_RECV_BYTES)
        if not data:
            raise ConnectionError(f"server closed the connection in {what}")
        self.buffer += data

    def response(self) -> "tuple[int, bytes]":
        """The status and body of the answer :meth:`send` began to read.

        A response that says ``Connection: close`` drops the socket, and
        the next request opens a new one.
        """
        buffer = self.buffer
        searched = 0
        while (end := buffer.find(b"\r\n\r\n", searched)) < 0:
            if len(buffer) > _RECV_BYTES:
                raise ConnectionError(
                    f"response head over {_RECV_BYTES} bytes")
            searched = max(len(buffer) - 3, 0)
            self._receive("the response head")
        try:
            status, length, close = parse_response_head(buffer[:end])
        except ValueError as error:
            raise ConnectionError(str(error)) from None
        stop = end + 4 + length
        while len(buffer) < stop:
            self._receive(f"a {length}-byte body")
        body = bytes(buffer[end + 4:stop])
        buffer.clear()
        if close:
            self.close()
        return status, body


class ServeClient:
    """Typed access to one running serve front door.

    Each calling thread keeps one persistent HTTP/1.1 connection, so
    one client may be shared by many threads.  :meth:`close` ends them
    all; the client is a context manager that does so on exit.

    Args:
        host / port: where the server listens.
        timeout_s: per-request socket timeout.
    """

    def __init__(self, host: str, port: int,
                 timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._host = f"{host}:{port}"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._connections: "list[_Connection]" = []

    def close(self) -> None:
        """Close every thread's connection; a later call reconnects."""
        with self._lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self) -> _Connection:
        """The calling thread's connection (its socket opens lazily)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _Connection((self.host, self.port),
                                     self.timeout_s)
            with self._lock:
                self._local.connection = connection
                self._connections.append(connection)
        return connection

    def _exchange(self, method: str, target: str,
                  payload: "bytes | None" = None) -> bytes:
        """One request/response cycle; the response body, or
        :class:`ServeError` for a status of 400 or more."""
        request = encode_request(method, target, self._host, payload)
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.send(request)
            except (ConnectionResetError, BrokenPipeError):
                # The server closes a kept-alive connection only before
                # it reads a byte of the next request, so a request that
                # got no answer was never applied: retry it once on a
                # new connection.
                if not reused:
                    raise
                connection.close()
                return self._exchange(method, target, payload)
            status, body = connection.response()
        except BaseException:
            connection.close()
            raise
        if status >= 400:
            raise ServeError(status, json.loads(body or b"{}"))
        return body

    def _request(self, method: str, path: str,
                 body: "dict | None" = None) -> dict:
        """One JSON request/response; raises :class:`ServeError`."""
        payload = json.dumps(body).encode() if body is not None else None
        return json.loads(self._exchange(method, path, payload) or b"{}")

    # -- service ---------------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def workloads(self) -> "list[dict]":
        """``GET /workloads`` — the registered workload rows."""
        return self._request("GET", "/workloads")["workloads"]

    def metrics(self) -> str:
        """``GET /metrics`` — the server's registry as Prometheus text
        (format 0.0.4; :func:`repro.telemetry.parse_prometheus` reads
        it)."""
        return self._exchange("GET", "/metrics").decode("utf-8")

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
        """``POST /scenarios`` — enqueue a scenario envelope.

        A spec that does not decode is refused with 400, a full queue
        with 503; neither issues a job id.
        """
        return self._request("POST", "/scenarios", scenario)

    def status(self, job_id: str, wait_s: float = 0.0) -> dict:
        """``GET /scenarios/{id}`` — one job's lifecycle status.

        With ``wait_s > 0`` this is a long-poll: the server holds the
        request until the job is done or failed, or ``wait_s`` elapses
        (clamped to its ``MAX_WAIT_S``), then answers the same payload.

        A :class:`ServeError` with status 410 means the job finished
        and was evicted (the server keeps its last ``MAX_FINISHED_JOBS``
        finished jobs); 404 that no such job was ever issued.
        """
        suffix = f"?wait={wait_s:.3f}" if wait_s > 0.0 else ""
        return self._request("GET", f"/scenarios/{job_id}{suffix}")

    def result(self, job_id: str, traces: bool = False) -> dict:
        """``GET /scenarios/{id}/result`` — the replayable artifact.

        Fetch it promptly: a :class:`ServeError` with status 410 means
        the job was evicted after newer jobs finished, 409 that it is
        not done.
        """
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
