"""The HTTP/1.1 subset the front door and its client put on the wire.

How a request or response is framed is decided here alone:
:mod:`repro.serve.server` keeps routes, jobs, streams and connection
lifecycles, and :mod:`repro.serve.client` writes requests and reads
responses through the same functions.  Bodies are framed by
``Content-Length`` only (a ``Transfer-Encoding`` is refused with 501);
head lines end in CRLF or a bare LF.  The head parsers are pure
functions of bytes, so they are fuzzed in-process.  Stdlib only.
"""

from __future__ import annotations

import asyncio
from http import HTTPStatus
from typing import Iterable, NamedTuple
from urllib.parse import parse_qs, urlsplit

#: Longest request line or header line the server will read [bytes],
#: the connection's stream buffer limit; a longer request line is
#: answered 400, a longer header line 431.
MAX_LINE_BYTES = 64 * 1024

#: Most header lines one request may carry; more are answered 431.
MAX_HEADERS = 100

#: Largest request body the server will read [bytes]; larger requests
#: are answered 413 before the body is consumed.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest the server keeps reading (and discarding) a request it
#: refused before closing the connection [s].
_LINGER_S = 1.0


class HttpError(Exception):
    """A request refused with an HTTP status and a message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class RequestHead(NamedTuple):
    """A parsed request head; ``length`` is its body's byte count."""

    method: str
    path: str
    query: "dict[str, str]"
    length: int
    keep_alive: bool


def _fields(lines: Iterable[str]) -> "tuple[dict[str, str], int, set]":
    """Header lines as ``{lowercased name: value}`` (the last of a
    repeated name wins), the body length they declare (0: none) and the
    ``Connection`` tokens.

    ``ValueError`` for a non-digit length, and for repeated
    ``Content-Length`` lines whose values differ (RFC 9112 section
    6.3): a peer that read the first of them would frame the body
    differently.  Repeats of one value are accepted.
    """
    headers = {}
    lengths = set()
    for line in lines:
        name, _, value = line.partition(":")
        name, value = name.strip().lower(), value.strip()
        headers[name] = value
        if name == "content-length":
            if not (value.isascii() and value.isdigit()):
                raise ValueError(f"invalid Content-Length {value!r}")
            lengths.add(int(value))
    if len(lengths) > 1:
        raise ValueError(
            f"conflicting Content-Length values {sorted(lengths)}")
    tokens = {token.strip() for token
              in headers.get("connection", "").lower().split(",")}
    return headers, lengths.pop() if lengths else 0, tokens


def _line_too_long(index: int) -> HttpError:
    """Refuse head line ``index`` (0: the request line) as too long."""
    status, what = (400, "request line") if index == 0 else \
        (431, "header line")
    return HttpError(status, f"{what} longer than {MAX_LINE_BYTES} bytes")


def parse_request_head(head: bytes) -> RequestHead:
    """Parse a request line and its header lines.

    ``head`` holds the lines, each ended by CRLF or a bare LF, without
    the blank line after them.

    Raises:
        HttpError: 400 for a malformed or over-long request line, a
            malformed target or an invalid ``Content-Length``; 413 for
            a body over :data:`MAX_BODY_BYTES`; 431 for an over-long
            header line or more than :data:`MAX_HEADERS` headers; 501
            for a ``Transfer-Encoding``.
    """
    lines = head.split(b"\n")
    if len(lines) > 1 and not lines[-1]:
        del lines[-1]
    for index, line in enumerate(lines):
        if index > MAX_HEADERS:
            raise HttpError(431, f"more than {MAX_HEADERS} headers")
        if len(line) > MAX_LINE_BYTES:
            raise _line_too_long(index)
    parts = lines[0].decode("latin-1").split()
    if len(parts) < 2:
        raise HttpError(400, "malformed request line")
    try:
        headers, length, tokens = _fields(
            line.decode("latin-1") for line in lines[1:])
        target = urlsplit(parts[1])
    except ValueError as error:
        raise HttpError(400, str(error)) from None
    if "transfer-encoding" in headers:
        raise HttpError(501, "Transfer-Encoding is not supported; "
                             "frame the body with Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {length} bytes exceeds the "
                             f"{MAX_BODY_BYTES}-byte cap")
    keep_alive = ("close" not in tokens if parts[2:] == ["HTTP/1.1"]
                  else "keep-alive" in tokens)
    query = {key: values[-1]
             for key, values in parse_qs(target.query).items()}
    return RequestHead(parts[0].upper(), target.path, query, length,
                       keep_alive)


async def _read_line(reader: asyncio.StreamReader, index: int) -> bytes:
    """Head line ``index``; an empty result means the stream ended
    before the line began, and one it ended in the middle of raises
    ``asyncio.IncompleteReadError``, as a cut body does."""
    try:
        line = await reader.readline()
    except ValueError:      # past the stream's MAX_LINE_BYTES limit
        raise _line_too_long(index) from None
    if line and not line.endswith(b"\n"):
        raise asyncio.IncompleteReadError(line, None)
    return line


async def read_request(reader: asyncio.StreamReader
                       ) -> "tuple[RequestHead, bytes] | None":
    """Read one request: its parsed head and its body.

    None when the stream ends (or sends a blank line) before a request
    begins.  A request the stream ends in the middle of raises
    ``asyncio.IncompleteReadError``, a refused one :class:`HttpError`
    once no more than the head limits allow has been read.
    """
    line = await _read_line(reader, 0)
    if not line.strip():
        return None
    lines = [line]
    while len(lines) <= MAX_HEADERS + 1:
        line = await _read_line(reader, len(lines))
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise asyncio.IncompleteReadError(line, None)
        lines.append(line)
    head = parse_request_head(b"".join(lines))
    body = await reader.readexactly(head.length) if head.length else b""
    return head, body


async def discard_unread(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
    """Half-close, then read what the client still sends, for at most
    :data:`_LINGER_S`: closing on unread input resets the connection,
    which can discard the error response before the client reads it."""
    if writer.can_write_eof():
        writer.write_eof()
    try:
        await asyncio.wait_for(_read_to_eof(reader), _LINGER_S)
    except asyncio.TimeoutError:
        pass


async def _read_to_eof(reader: asyncio.StreamReader) -> None:
    while await reader.read(MAX_LINE_BYTES):
        pass


def encode_request(method: str, target: str, host: str,
                   body: "bytes | None" = None) -> bytes:
    """One request as the client sends it; a body is JSON."""
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
    if body is not None:
        head += (f"Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n")
    return (head + "\r\n").encode("latin-1") + (body or b"")


def encode_response(status: int, body: bytes, content_type: str,
                    keep_alive: bool,
                    headers: "dict[str, str] | None" = None) -> bytes:
    """One response as the server sends it, reason phrase from
    :class:`http.HTTPStatus`."""
    head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n")
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += ("Connection: keep-alive\r\n\r\n" if keep_alive
             else "Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def parse_response_head(head: bytes) -> "tuple[int, int, bool]":
    """Parse a status line and its CRLF-ended header lines (without
    the blank line): the status, the body length (0 when undeclared)
    and whether the response closes its connection.

    Raises:
        ValueError: a malformed status line or ``Content-Length``.
    """
    status_line, *lines = head.decode("latin-1").split("\r\n")
    version, _, rest = status_line.partition(" ")
    code = rest[:3]
    if not (version.startswith("HTTP/") and code.isascii()
            and code.isdigit()):
        raise ValueError(f"malformed status line {status_line!r}")
    __, length, tokens = _fields(lines)
    return int(code), length, "close" in tokens
