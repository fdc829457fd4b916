"""ServeClient's own HTTP/1.1 framing against a scripted socket server.

Each test scripts the server side byte for byte: a response that
trickles in, ``Connection: close``, an idle connection the peer closed,
a reset, an error status, a body cut short and a server that never
answers.  The client must read what the front door writes, retry only a
request that was never answered on a reused connection, and never hang.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.serve import ServeClient, ServeError


def _response(status: int, payload, close: bool = False,
              declared: "int | None" = None) -> bytes:
    body = json.dumps(payload).encode()
    length = len(body) if declared is None else declared
    return (f"HTTP/1.1 {status} Scripted\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
            ).encode("latin-1") + body


class ScriptedServer:
    """Accepts connections one at a time; connection ``i`` runs
    ``scripts[i](server, conn)``, and any later one is counted and
    closed."""

    def __init__(self, *scripts) -> None:
        self.scripts = scripts
        self.requests: "list[bytes]" = []
        self.accepted = 0
        self.release = threading.Event()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "ScriptedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release.set()
        self._stop.set()
        self._thread.join(timeout=10.0)
        self.listener.close()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            with conn:
                if self.accepted <= len(self.scripts):
                    self.scripts[self.accepted - 1](self, conn)

    def read_request(self, conn: socket.socket) -> bytes:
        """One request: its head, then a body of its Content-Length."""
        data = b""
        while b"\r\n\r\n" not in data:
            data += conn.recv(4096)
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            body += conn.recv(4096)
        self.requests.append(head + b"\r\n\r\n" + body)
        return body


def _client(server: ScriptedServer, timeout_s: float = 5.0) -> ServeClient:
    return ServeClient("127.0.0.1", server.port, timeout_s=timeout_s)


def test_request_is_one_well_formed_message():
    def answer(server, conn):
        server.read_request(conn)
        conn.sendall(_response(200, {"cursor": 5}))

    with ScriptedServer(answer) as server, _client(server) as client:
        assert client.push_readings("s1", count=5) == {"cursor": 5}
    head, _, body = server.requests[0].partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0] == b"POST /streams/s1/readings HTTP/1.1"
    assert b"Content-Length: %d" % len(body) in lines
    assert json.loads(body) == {"count": 5}


def test_response_arriving_one_byte_at_a_time():
    payload = {"status": "ok", "values": [1.5, -0.0, 2e-9]}

    def trickle(server, conn):
        server.read_request(conn)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in _response(200, payload):
            conn.sendall(bytes([byte]))
            time.sleep(0.0005)
        server.read_request(conn)       # the connection stays usable
        conn.sendall(_response(200, {"again": True}))

    with ScriptedServer(trickle) as server, _client(server) as client:
        assert client.health() == payload
        assert client.health() == {"again": True}
    assert server.accepted == 1


def test_connection_close_then_reconnect():
    def close_after(server, conn):
        server.read_request(conn)
        conn.sendall(_response(200, {"n": 1}, close=True))

    def keep(server, conn):
        server.read_request(conn)
        conn.sendall(_response(200, {"n": 2}))

    with ScriptedServer(close_after, keep) as server, \
            _client(server) as client:
        assert client.health() == {"n": 1}
        assert client.health() == {"n": 2}
    assert server.accepted == 2


def test_idle_connection_closed_by_peer_is_retried_once():
    closed = threading.Event()

    def idle_close(server, conn):
        server.read_request(conn)
        conn.sendall(_response(200, {"n": 1}))
        conn.shutdown(socket.SHUT_RDWR)
        closed.set()

    def keep(server, conn):
        server.read_request(conn)
        conn.sendall(_response(200, {"n": 2}))

    with ScriptedServer(idle_close, keep) as server, \
            _client(server) as client:
        assert client.stream_status("s1") == {"n": 1}
        assert closed.wait(5.0)
        assert client.push_readings("s1", count=3) == {"n": 2}
    assert server.accepted == 2
    assert len(server.requests) == 2    # the push reached one server
    assert server.requests[1].startswith(b"POST /streams/s1/readings ")


def test_reset_on_a_fresh_connection_is_raised():
    def reset(server, conn):
        server.read_request(conn)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))

    with ScriptedServer(reset) as server, _client(server) as client:
        with pytest.raises(ConnectionResetError):
            client.health()
        time.sleep(0.2)
    assert server.accepted == 1


def test_error_status_raises_serve_error_with_its_payload():
    def refuse(server, conn):
        server.read_request(conn)
        conn.sendall(_response(404, {"error": "no such stream"}))
        server.read_request(conn)
        conn.sendall(_response(200, {"status": "ok"}))

    with ScriptedServer(refuse) as server, _client(server) as client:
        with pytest.raises(ServeError) as excinfo:
            client.stream_status("missing")
        assert excinfo.value.status == 404
        assert excinfo.value.payload == {"error": "no such stream"}
        assert client.health() == {"status": "ok"}


def test_eof_before_the_declared_body_is_an_error():
    def short(server, conn):
        server.read_request(conn)
        conn.sendall(_response(200, {"n": 1}, declared=100))

    with ScriptedServer(short) as server, _client(server) as client:
        began = time.monotonic()
        with pytest.raises(ConnectionError) as excinfo:
            client.health()
        assert not isinstance(excinfo.value, ConnectionResetError)
        assert time.monotonic() - began < 2.0
        time.sleep(0.2)
    assert server.accepted == 1


def test_head_without_content_length_has_no_body():
    def bodiless(server, conn):
        server.read_request(conn)
        conn.sendall(b"HTTP/1.1 204 No Content\r\n\r\n")
        server.read_request(conn)
        conn.sendall(_response(200, {"status": "ok"}))

    with ScriptedServer(bodiless) as server, _client(server) as client:
        assert client.health() == {}
        assert client.health() == {"status": "ok"}
    assert server.accepted == 1


def test_read_timeout_is_honoured():
    def silent(server, conn):
        server.read_request(conn)
        server.release.wait(10.0)

    with ScriptedServer(silent) as server, \
            _client(server, timeout_s=0.3) as client:
        began = time.monotonic()
        with pytest.raises(TimeoutError):
            client.health()
        assert 0.25 <= time.monotonic() - began < 2.0


def test_import_does_not_load_http_client():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serve; "
         "print('http.client' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
