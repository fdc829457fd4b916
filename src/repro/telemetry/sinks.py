"""Trace sinks: stream telemetry events to disk as they happen.

A sink is anything with ``emit(event: dict)`` and ``close()``.  The one
shipped here, :class:`JsonlSink`, appends one JSON object per line —
the trace format ``python -m repro run --trace-out`` writes, CI uploads
as a workflow artifact, and :func:`read_jsonl` loads back for tooling
and tests.  Sinks capture live (a crash loses at most the unflushed
tail); to keep an aggregated run's spans on disk too, attach a sink to
the :class:`repro.telemetry.InMemoryRecorder` before it records.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path


class JsonlSink:
    """Append-only JSONL trace writer (one event object per line).

    The file opens lazily on the first event, so constructing a sink
    (e.g. from ``REPRO_TELEMETRY_TRACE``) costs nothing if the run
    never records.  Thread-safe: a lock serializes open/emit/close, so
    events from a thread pool land as whole lines in arrival order.
    :meth:`close` is idempotent.
    """

    def __init__(self, path: "str | Path") -> None:
        """Remember the target path; the file opens on first emit."""
        self.path = Path(path)
        self._handle = None
        self._lock = threading.Lock()

    def emit(self, event: dict) -> None:
        """Write one event as a JSON line (keys sorted, flushed)."""
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("w", encoding="utf-8")
            self._handle.write(json.dumps(event, sort_keys=True) + "\n")
            self._handle.flush()

    def close(self) -> None:
        """Close the file if it was ever opened (safe to call twice)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def read_jsonl(path: "str | Path") -> list[dict]:
    """Load a JSONL trace file back into a list of event dicts.

    Blank lines are skipped; malformed lines raise ``ValueError``
    naming the line number, so a truncated trace fails loudly.
    """
    events = []
    for number, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}:{number}: malformed trace line: {error}") from None
    return events
