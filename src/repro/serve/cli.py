"""The ``python -m repro serve`` command: boot the async front door.

Thin argparse glue between the scenario CLI and
:class:`repro.serve.server.ReproServer`; shares the ``run`` command's
telemetry flags (``--telemetry``, ``--trace-out``, ``--perfetto-out``,
all through :func:`repro.telemetry.telemetry_session`) so a serving
process records ``serve.*`` spans next to the engine's own and prints
the span summary and its metrics on shutdown — the CI smoke job
uploads the JSONL trace as an artifact.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import threading
from pathlib import Path


def _install_shutdown_handlers() -> None:
    """Map SIGINT/SIGTERM to a clean ``KeyboardInterrupt`` shutdown.

    A process launched in the background from a non-interactive shell
    (CI smoke jobs, supervisors) inherits SIGINT as ignored, in which
    case ``asyncio.run`` never installs its graceful handler and the
    server can only be SIGKILLed — losing the telemetry flush.  Restore
    the default SIGINT disposition and treat SIGTERM the same way so
    ``kill`` and ``kill -INT`` both unwind through the server's stop
    path.
    """

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, _terminate)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving process until interrupted."""
    from repro.serve.server import ReproServer
    from repro.telemetry import get_metrics_registry, telemetry_session

    with telemetry_session(args.telemetry, args.trace_out,
                           args.perfetto_out) as recorder:
        # meter into the session's registry, which it prints on exit
        server = ReproServer(host=args.host, port=args.port,
                             queue_size=args.queue_size,
                             workers=args.workers,
                             registry=(get_metrics_registry()
                                       if recorder is not None else None))
        _install_shutdown_handlers()
        try:
            asyncio.run(server.serve_forever())
        except KeyboardInterrupt:
            pass
    return 0


def add_serve_command(sub: "argparse._SubParsersAction") -> None:
    """Attach the ``serve`` subcommand to the ``python -m repro`` CLI."""
    serve_p = sub.add_parser(
        "serve",
        help="serve scenarios and live streams over HTTP")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8750,
                         help="bind port; 0 picks a free one "
                              "(default: 8750)")
    serve_p.add_argument("--queue-size", type=int, default=16,
                         help="job-queue bound; submissions beyond it "
                              "get 503 (default: 16)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="job worker processes (default: 2)")
    serve_p.add_argument("--telemetry", action="store_true",
                         help="record serve.* and engine spans; print "
                              "them and the metrics on shutdown")
    serve_p.add_argument("--trace-out", type=Path, default=None,
                         help="stream spans to this JSONL "
                              "file (implies --telemetry)")
    serve_p.add_argument("--perfetto-out", type=Path, default=None,
                         help="write a Perfetto flame graph on "
                              "shutdown (implies --telemetry)")
    serve_p.set_defaults(func=_cmd_serve)
