"""Online serving: incremental engine state plus an async front door.

The batch engines answer "what happened over a whole wear period"; this
subsystem answers the *online* question — what does the cohort look
like right now, one reading at a time.  Two layers:

* **Incremental execution** (:mod:`repro.serve.session`) — a
  :class:`StreamSession` advances any snapshot-capable kernel set
  (monitor, estimation) block by block under caller control, yielding
  incremental filtered estimates that are gated bit-identical
  (<= 1e-9) to the batch engine on the same plan.  Sessions suspend to
  schema-versioned snapshots (:mod:`repro.engine.core.snapshot`) and
  resume with bounded memory.
* **Front door** (:mod:`repro.serve.server`) — a stdlib-only asyncio
  HTTP server (``python -m repro serve``): submit scenarios to a
  bounded work queue drained by forked worker processes, long-poll
  their status, fetch results, and push readings to live streams;
  health and throughput counters flow through
  :mod:`repro.telemetry`.  :mod:`repro.serve.client` is the matching
  stdlib client.

Guide: ``docs/serving.md``.  Gates: streaming-vs-batch identity in
``tests/serve/``, >= 1000 readings/s/channel steady-state throughput
and cursor-independent snapshot size in ``benchmarks/bench_serve.py``.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.server import MAX_BODY_BYTES, ReproServer, ServerThread
from repro.serve.session import StreamSession, StreamUpdate

__all__ = [
    "MAX_BODY_BYTES",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "ServerThread",
    "StreamSession",
    "StreamUpdate",
]
