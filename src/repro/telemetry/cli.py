"""The telemetry command line: ``python -m repro telemetry ...``.

One subcommand today::

    python -m repro telemetry summary fleet.sqlite     # campaign store
    python -m repro telemetry summary snapshot.json    # saved snapshot
    python -m repro telemetry summary fleet.sqlite --json
    python -m repro telemetry summary fleet.sqlite --prometheus

``summary`` renders a metrics snapshot — counters, gauges, histogram
percentiles and exemplars — from either source.  The source type is
auto-detected from the file's content: a SQLite campaign store (its
``metrics`` telemetry events are merged into one fleet-wide snapshot
via :func:`~repro.telemetry.merge_snapshots`) or a JSON file holding
one :meth:`~repro.telemetry.MetricsRegistry.snapshot` payload.
``--json`` emits the merged snapshot itself; ``--prometheus`` emits
the text exposition (format 0.0.4) so a saved snapshot can be pushed
through any Prometheus tooling offline.  The subcommand is registered
onto the main ``python -m repro`` parser by
:func:`add_telemetry_commands`.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

#: File problems the CLI reports as exit code 2 instead of a
#: traceback: missing files, malformed snapshots, schema mismatches.
_USAGE_ERRORS = (FileNotFoundError, FileExistsError, ValueError)

#: The magic header every SQLite 3 database file starts with — the
#: sniff that routes ``summary`` to the campaign-store reader.
_SQLITE_MAGIC = b"SQLite format 3"


def load_snapshot(source: Path) -> dict:
    """Read one metrics snapshot from a store or a JSON file.

    Args:
        source: a campaign SQLite store (merged across shards) or a
            JSON file holding one registry snapshot.

    Returns:
        A schema-checked snapshot dict.

    Raises:
        FileNotFoundError: the source does not exist.
        ValueError: the file is neither a campaign store with metrics
            events nor a valid snapshot payload.
    """
    from repro.telemetry.metrics import require_snapshot

    if not source.is_file():
        raise FileNotFoundError(f"no such file: {source}")
    with source.open("rb") as handle:
        header = handle.read(len(_SQLITE_MAGIC))
    if header == _SQLITE_MAGIC:
        from repro.campaigns.report import merged_metrics
        from repro.campaigns.store import ArtifactStore

        with ArtifactStore.open(source) as store:
            merged = merged_metrics(store.telemetry_events())
        if merged is None:
            raise ValueError(
                f"{source} holds no metrics snapshots — run the "
                "campaign with REPRO_METRICS=1 to record them")
        return merged
    try:
        payload = json.loads(source.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{source} is neither a SQLite campaign "
                         f"store nor JSON: {error}") from None
    return dict(require_snapshot(payload))


def _cmd_summary(args: argparse.Namespace) -> int:
    """Render one snapshot as a table, JSON, or text exposition."""
    from repro.telemetry.metrics import render_prometheus, render_snapshot

    try:
        snapshot = load_snapshot(args.source)
    except _USAGE_ERRORS as error:
        print(error)
        return 2
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.prometheus:
        print(render_prometheus(snapshot), end="")
    else:
        print(render_snapshot(snapshot))
    return 0


def add_telemetry_commands(subparsers) -> None:
    """Register the ``telemetry`` subcommand tree on the main CLI."""
    telemetry = subparsers.add_parser(
        "telemetry",
        help="inspect recorded metrics snapshots and campaign stores")
    commands = telemetry.add_subparsers(dest="telemetry_command",
                                        required=True)

    summary_p = commands.add_parser(
        "summary", help="render a metrics snapshot: counters, gauges, "
                        "histogram percentiles, exemplars")
    summary_p.add_argument(
        "source", type=Path,
        help="a campaign SQLite store (shards merged fleet-wide) or "
             "a JSON snapshot file")
    group = summary_p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="emit the merged snapshot as JSON")
    group.add_argument("--prometheus", action="store_true",
                       help="emit the text exposition (format 0.0.4)")
    summary_p.set_defaults(func=_cmd_summary)
