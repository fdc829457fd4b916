"""The HTTP/1.1 header subset the front door and its client both read.

:mod:`repro.serve.server` parses request heads and
:mod:`repro.serve.client` response heads with these helpers, so both
ends agree on how a header line splits, how ``Content-Length`` is read
and which ``Connection`` tokens a head carries.  Stdlib only.
"""

from __future__ import annotations

from typing import Iterable


def header_fields(lines: Iterable[str]) -> "dict[str, str]":
    """Header lines (no line ends) as ``{lowercased name: value}``,
    name and value stripped; a repeated name keeps its last value."""
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return headers


def content_length(headers: "dict[str, str]") -> int:
    """The body length a head declares; 0 when it declares none.

    Raises:
        ValueError: the value is not a string of ASCII digits.
    """
    raw = headers.get("content-length") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"invalid Content-Length {raw!r}")
    return int(raw)


def connection_tokens(headers: "dict[str, str]") -> "set[str]":
    """The lowercased tokens of the ``Connection`` header."""
    return {token.strip()
            for token in headers.get("connection", "").lower().split(",")}
