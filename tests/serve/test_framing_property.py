"""Property tests: the HTTP/1.1 framing, driven in-process.

:func:`repro.serve.framing.parse_request_head` is a pure function of
bytes, so Hypothesis drives thousands of generated heads through it per
run: odd methods, targets and versions, runs of whitespace, repeated,
malformed, oversized and conflicting ``Content-Length`` values,
``Transfer-Encoding``, bare-LF line ends, over-long lines and too many
headers.  Each must parse to a request or raise :class:`HttpError` with
a 4xx status or 501, never another exception; heads whose
``Content-Length`` lines disagree must all be refused, on the request
and the response side.  Well-formed heads must parse to what
they say, every request :class:`ServeClient` writes must parse back to
the method, target and body length it was given, and every response
the server encodes must read back through the client's response path.
"""

from __future__ import annotations

import json
from http import HTTPStatus

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.serve import ServeClient, framing
from repro.serve import server as server_module
from repro.serve.client import _Connection
from repro.serve.framing import HttpError, parse_request_head

LINE_ENDS = st.sampled_from([b"\r\n", b"\n"])

#: Separators between request-line parts, some of them unusual.
SPACES = st.sampled_from([b" ", b"  ", b"\t", b" \t ", b"\x0b", b"\xa0"])

METHODS = st.one_of(
    st.sampled_from([b"GET", b"POST", b"DELETE", b"get", b"PUT",
                     b"OPTIONS", b"PRI", b"", b"G\x00T"]),
    st.binary(min_size=1, max_size=8))

TARGETS = st.one_of(
    st.sampled_from([b"/healthz", b"/scenarios/job-0001?wait=1.5",
                     b"/streams/stream-0001/readings", b"*", b"//[",
                     b"http://[::1", b"http://host/p?a=1&a=2",
                     b"/%zz?%%=&&", b"/?" + b"q=1&" * 50, b""]),
    st.binary(min_size=1, max_size=24))

VERSIONS = st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2",
                            b"http/1.1", b"HTTP/1.1 extra", b"", b"\xff"])

CONTENT_LENGTHS = st.one_of(
    st.integers(0, 2 * framing.MAX_BODY_BYTES).map(
        lambda n: str(n).encode()),
    st.sampled_from([b"", b"-5", b"abc", b" 7 ", b"0x10", b"1e3",
                     b"\xb2", b"9" * 40, b"9" * 5000, b"12, 12",
                     str(framing.MAX_BODY_BYTES).encode(),
                     str(framing.MAX_BODY_BYTES + 1).encode()]))

HEADER_LINES = st.one_of(
    st.tuples(st.sampled_from([b"Content-Length", b"content-length",
                               b" CONTENT-LENGTH "]), CONTENT_LENGTHS),
    st.tuples(st.sampled_from([b"Transfer-Encoding",
                               b"transfer-encoding"]),
              st.sampled_from([b"chunked", b"identity", b"",
                               b"gzip, chunked"])),
    st.tuples(st.just(b"Connection"),
              st.sampled_from([b"close", b"keep-alive", b"Close",
                               b"keep-alive, close", b"upgrade", b""])),
    st.tuples(st.binary(max_size=12), st.binary(max_size=24)),
).map(lambda pair: pair[0] + b":" + pair[1])

#: Header lines with no colon at all.
ODD_LINES = st.binary(max_size=16).filter(lambda line: b":" not in line)

#: One more byte than a head line may hold.
TOO_LONG = b"a" * (framing.MAX_LINE_BYTES + 1)


@st.composite
def request_heads(draw) -> bytes:
    """A generated request head: request line plus header lines, each
    with its own line end, and no blank line after them."""
    end = draw(LINE_ENDS)
    line = (draw(METHODS) + draw(SPACES) + draw(TARGETS) + draw(SPACES)
            + draw(VERSIONS))
    if draw(st.integers(0, 19)) == 7:
        line += TOO_LONG
    lines = [line] + draw(st.lists(st.one_of(HEADER_LINES, ODD_LINES),
                                   max_size=6))
    if draw(st.integers(0, 19)) == 7:
        lines.insert(draw(st.integers(1, len(lines))), b"X-Long: " + TOO_LONG)
    lines += [b"X-Many: 1"] * draw(st.sampled_from(
        [0, 0, 0, framing.MAX_HEADERS - len(lines) + 1,
         framing.MAX_HEADERS - len(lines) + 2]))
    return b"".join(line + (draw(LINE_ENDS) if draw(st.booleans())
                            else end) for line in lines)


def _header_values(head: bytes, name: str) -> "list[str]":
    """Every value of header ``name`` in ``head``."""
    lines = head.decode("latin-1").split("\n")[1:]
    return [value.strip() for key, __, value
            in (line.partition(":") for line in lines)
            if key.strip().lower() == name]


@settings(max_examples=1000, deadline=None)
@given(head=request_heads())
@example(head=b"POST /streams/stream-0001/readings HTTP/1.1\r\n"
              b"Transfer-Encoding: chunked\r\nContent-Length: 13\r\n")
@example(head=b"GET //[ HTTP/1.1\r\n")
@example(head=b"")
def test_any_head_parses_or_is_refused_with_a_status(head):
    try:
        request = parse_request_head(head)
    except HttpError as error:
        assert 400 <= error.status < 500 or error.status == 501, error
        lines = head.split(b"\n")
        if error.status == 413:
            assert _header_values(head, "content-length")
        if error.status == 501:
            assert _header_values(head, "transfer-encoding")
        if len([line for line in lines if line]) > framing.MAX_HEADERS + 1:
            assert error.status in (400, 431)
        return
    assert not _header_values(head, "transfer-encoding")
    lengths = {int(value)
               for value in _header_values(head, "content-length")}
    assert len(lengths) <= 1
    assert request.length == (lengths.pop() if lengths else 0)
    assert 0 <= request.length <= framing.MAX_BODY_BYTES
    assert request.method == request.method.upper()
    assert isinstance(request.keep_alive, bool)
    assert all(isinstance(value, str) for value in request.query.values())
    assert max(map(len, head.split(b"\n"))) <= framing.MAX_LINE_BYTES
    assert len(head.rstrip(b"\n").split(b"\n")) <= framing.MAX_HEADERS + 1


NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1,
                max_size=10)
TOKENS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-._~",
                 min_size=1, max_size=12)


@st.composite
def conflicting_length_heads(draw) -> "tuple[bytes, bytes]":
    """A request head and a response head that each carry two or more
    ``Content-Length`` lines with at least two different values, spread
    among other header lines."""
    first = draw(st.integers(0, 2 * framing.MAX_BODY_BYTES))
    second = draw(st.integers(0, 2 * framing.MAX_BODY_BYTES).filter(
        lambda n: n != first))
    values = [first, second] + draw(st.lists(
        st.sampled_from([first, second]), max_size=3))
    values = draw(st.permutations(values))
    names = st.sampled_from(["Content-Length", "content-length",
                             " CONTENT-LENGTH "])
    zeros = st.sampled_from(["", "0", "00"])
    lines = [f"{draw(names)}:{draw(st.sampled_from(['', ' ']))}"
             f"{draw(zeros)}{value}" for value in values]
    others = draw(st.lists(st.tuples(NAMES, TOKENS), max_size=4))
    for name, value in others:
        assume(name not in ("content-length", "transfer-encoding"))
        lines.insert(draw(st.integers(0, len(lines))), f"{name}: {value}")
    end = draw(st.sampled_from(["\r\n", "\n"]))
    request = "".join(line + end for line in
                      ["POST /scenarios HTTP/1.1"] + lines)
    response = "\r\n".join(["HTTP/1.1 200 OK"] + lines)
    return request.encode("latin-1"), response.encode("latin-1")


@settings(max_examples=300, deadline=None)
@given(heads=conflicting_length_heads())
@example(heads=(b"POST /scenarios HTTP/1.1\r\nContent-Length: 5\r\n"
                b"Content-Length: 50\r\n",
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"
                b"Content-Length: 50"))
def test_conflicting_content_lengths_are_refused(heads):
    """Repeated ``Content-Length`` lines that disagree frame no body:
    the server refuses the request with 400 and the client the
    response, whichever value comes first."""
    request, response = heads
    with pytest.raises(HttpError) as excinfo:
        parse_request_head(request)
    assert excinfo.value.status == 400
    assert "conflicting Content-Length" in str(excinfo.value)
    with pytest.raises(ValueError, match="conflicting Content-Length"):
        framing.parse_response_head(response)


@pytest.mark.parametrize("values", [["7", "7"], ["7", "007", "7"],
                                    ["0", "00"]])
def test_repeats_of_one_content_length_parse(values):
    lines = "".join(f"Content-Length: {value}\r\n" for value in values)
    head = f"POST /scenarios HTTP/1.1\r\n{lines}".encode()
    assert parse_request_head(head).length == int(values[0])
    assert framing.parse_response_head(
        f"HTTP/1.1 200 OK\r\n{lines}".rstrip().encode())[1] \
        == int(values[0])


@settings(max_examples=300, deadline=None)
@given(method=st.sampled_from(["GET", "POST", "DELETE", "post"]),
       path=st.lists(TOKENS, max_size=4).map(
           lambda parts: "/" + "/".join(parts)),
       query=st.dictionaries(TOKENS, TOKENS, max_size=3),
       length=st.integers(0, framing.MAX_BODY_BYTES),
       version=st.sampled_from(["HTTP/1.1", "HTTP/1.0"]),
       connection=st.sampled_from([None, "close", "keep-alive",
                                   "Keep-Alive, Upgrade"]),
       extra=st.lists(st.tuples(NAMES, TOKENS), max_size=5),
       end=st.sampled_from(["\r\n", "\n"]))
def test_a_well_formed_head_parses_to_what_it_says(
        method, path, query, length, version, connection, extra, end):
    assume(all(name not in ("content-length", "connection",
                            "transfer-encoding") for name, __ in extra))
    target = path + ("?" + "&".join(f"{key}={value}" for key, value
                                    in query.items()) if query else "")
    lines = [f"{method} {target} {version}",
             f"Content-Length: {length}"]
    lines += [f"{name}: {value}" for name, value in extra]
    if connection is not None:
        lines.append(f"Connection: {connection}")
    head = "".join(line + end for line in lines).encode("latin-1")
    request = parse_request_head(head)
    tokens = {token.strip().lower()
              for token in (connection or "").split(",")}
    assert request == (method.upper(), path, query, length,
                       "close" not in tokens if version == "HTTP/1.1"
                       else "keep-alive" in tokens)


class _Recorder:
    """Stands in for a client connection: keeps each request sent and
    answers it 200 with a JSON object."""

    sock = None

    def __init__(self) -> None:
        self.sent: "list[bytes]" = []

    def send(self, request: bytes) -> None:
        self.sent.append(request)

    def response(self) -> "tuple[int, bytes]":
        return 200, b'{"workloads": []}'

    def close(self) -> None:
        pass


IDS = st.one_of(st.from_regex(r"(job|stream)-[0-9]{4,6}", fullmatch=True),
                TOKENS)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(job_id=IDS, stream_id=IDS,
       wait_s=st.floats(0.0, 1e6, allow_nan=False),
       count=st.none() | st.integers(-2, 10**6),
       traces=st.booleans(),
       scenario=st.dictionaries(st.text(max_size=8), JSON_VALUES,
                                max_size=4))
def test_every_request_the_client_writes_parses_back(
        job_id, stream_id, wait_s, count, traces, scenario):
    client = ServeClient("127.0.0.1", 8750)
    recorder = client._local.connection = _Recorder()
    client.health()
    client.workloads()
    client.metrics()
    client.submit(scenario)
    client.status(job_id, wait_s=wait_s)
    client.result(job_id, traces=traces)
    client.create_stream(scenario)
    client.stream_status(stream_id)
    client.push_readings(stream_id, count=count)
    client.stream_result(stream_id, traces=traces)
    client.stream_snapshot(stream_id)
    client.delete_stream(stream_id)
    expected = [
        ("GET", "/healthz", {}), ("GET", "/workloads", {}),
        ("GET", "/metrics", {}),
        ("POST", "/scenarios", {}),
        ("GET", f"/scenarios/{job_id}",
         {"wait": f"{wait_s:.3f}"} if wait_s > 0.0 else {}),
        ("GET", f"/scenarios/{job_id}/result",
         {"traces": "1"} if traces else {}),
        ("POST", "/streams", {}), ("GET", f"/streams/{stream_id}", {}),
        ("POST", f"/streams/{stream_id}/readings", {}),
        ("GET", f"/streams/{stream_id}/result",
         {"traces": "1"} if traces else {}),
        ("GET", f"/streams/{stream_id}/snapshot", {}),
        ("DELETE", f"/streams/{stream_id}", {}),
    ]
    assert len(recorder.sent) == len(expected)
    for sent, (method, path, query) in zip(recorder.sent, expected):
        head, __, body = sent.partition(b"\r\n\r\n")
        request = parse_request_head(head)
        assert (request.method, request.path, request.query) \
            == (method, path, query)
        assert request.length == len(body)
        assert request.keep_alive
        if method == "POST":
            json.loads(body)


STATUSES = st.sampled_from([status.value for status in HTTPStatus])
PAYLOADS = st.one_of(
    st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4),
    st.text(max_size=64).map(
        lambda text: server_module._Text(text, "text/plain; version=0.0.4")))


@settings(max_examples=300, deadline=None)
@given(status=STATUSES, payload=PAYLOADS, keep_alive=st.booleans(),
       trace_id=st.none() | st.from_regex(r"[0-9a-f]{16,32}",
                                          fullmatch=True))
def test_every_response_the_server_encodes_reads_back(
        status, payload, keep_alive, trace_id):
    headers = {"X-Trace-Id": trace_id} if trace_id else None
    encoded = server_module._encode(status, payload, keep_alive, headers)
    connection = _Connection(("127.0.0.1", 0), 1.0)
    connection.buffer[:] = encoded
    got, body = connection.response()
    assert got == status
    assert encoded.endswith(body)
    if isinstance(payload, server_module._Text):
        assert body.decode("utf-8") == payload.text
    else:
        assert json.loads(body) == payload
    assert not connection.buffer


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_row_wise_encoding_is_json_dumps(value):
    """A traced body is encoded a row at a time (so its thread hands
    the event loop the GIL between rows) into the same text."""
    assert server_module._dumps_by_row(value) == json.dumps(value)


@pytest.mark.parametrize("head", [
    b"ICY 200 OK", b"HTTP/1.1 2x0 Odd", b"HTTP/1.1 \xb2\xb2\xb2 Odd",
    b"HTTP/1.1 200 OK\r\nContent-Length: -1",
    b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 50",
])
def test_a_malformed_response_head_is_a_value_error(head):
    with pytest.raises(ValueError):
        framing.parse_response_head(head)
