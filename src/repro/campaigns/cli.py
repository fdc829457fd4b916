"""The campaign command line: ``python -m repro campaign ...``.

Five subcommands over one SQLite artifact store::

    python -m repro campaign run fleet.json --store fleet.sqlite \\
        --workers 4                          # expand + run all shards
    python -m repro campaign status fleet.sqlite   # progress + ETA
    python -m repro campaign resume fleet.sqlite --workers 4
    python -m repro campaign export fleet.sqlite --out rows.json
    python -m repro campaign report fleet.sqlite \\
        --perfetto-out fleet_trace.json      # telemetry breakdown

``run`` refuses an existing store (resume it instead); ``resume``
requeues interrupted shards and skips finished ones; ``export`` writes
the deterministic manifest+rows JSON (stdout without ``--out``);
``report`` renders the telemetry table — per-shard duration
percentiles, throughput, worker utilization, slowest spans — and can
write the shard timeline as a Perfetto trace.  ``status``, ``export``
and ``report`` only read, through an ordinary read-write handle: the
last connection to close removes the WAL files, so a finished store
stays one file whichever command touched it last.  The subcommands are
registered onto the main ``python -m repro`` parser by
:func:`add_campaign_commands`.
"""

from __future__ import annotations

import argparse
from pathlib import Path


#: Store/spec problems the CLI reports as exit code 2 instead of a
#: traceback: missing or pre-existing files, schema mismatches, specs
#: that fail validation.
_USAGE_ERRORS = (FileNotFoundError, FileExistsError, ValueError)


def _cmd_run(args: argparse.Namespace) -> int:
    """Expand a campaign file into a new store and run it."""
    from repro.campaigns.runner import run_campaign
    from repro.campaigns.spec import CampaignSpec

    try:
        spec = CampaignSpec.load(args.campaign)
        report = run_campaign(spec, args.store, workers=args.workers)
    except _USAGE_ERRORS as error:
        print(error)
        return 2
    print(report.summary())
    return 0 if report.counts["failed"] == 0 else 1


def _cmd_resume(args: argparse.Namespace) -> int:
    """Resume an interrupted campaign from its store."""
    from repro.campaigns.runner import resume_campaign

    try:
        report = resume_campaign(args.store, workers=args.workers)
    except _USAGE_ERRORS as error:
        print(error)
        return 2
    print(report.summary())
    return 0 if report.counts["failed"] == 0 else 1


def _cmd_status(args: argparse.Namespace) -> int:
    """Print a store's manifest and per-status shard counts."""
    from repro.campaigns.store import ArtifactStore

    try:
        with ArtifactStore.open(args.store) as store:
            print(store.status_summary())
    except _USAGE_ERRORS as error:
        print(error)
        return 2
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Write a store's deterministic JSON export."""
    from repro.campaigns.store import ArtifactStore

    try:
        with ArtifactStore.open(args.store) as store:
            text = store.export_json()
    except _USAGE_ERRORS as error:
        print(error)
        return 2
    if args.out is None:
        print(text, end="")
    else:
        args.out.write_text(text)
        print(f"export -> {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a store's telemetry report, optionally with a trace."""
    import json

    from repro.campaigns.report import (
        render_report,
        report_payload,
        write_report_perfetto,
    )
    from repro.campaigns.store import ArtifactStore

    try:
        with ArtifactStore.open(args.store) as store:
            if args.json:
                print(json.dumps(report_payload(store), indent=2,
                                 sort_keys=True))
            else:
                print(render_report(store))
            if args.perfetto_out is not None:
                path = write_report_perfetto(store, args.perfetto_out)
                if not args.json:
                    print(f"perfetto trace -> {path}")
    except _USAGE_ERRORS as error:
        print(error)
        return 2
    return 0


def add_campaign_commands(subparsers) -> None:
    """Register the ``campaign`` subcommand tree on the main CLI parser."""
    campaign = subparsers.add_parser(
        "campaign",
        help="population-scale sharded campaigns over one scenario")
    commands = campaign.add_subparsers(dest="campaign_command",
                                       required=True)

    run_p = commands.add_parser(
        "run", help="expand a campaign JSON file into a new store "
                    "and run every shard")
    run_p.add_argument("campaign", type=Path,
                       help="path to a campaign .json file")
    run_p.add_argument("--store", type=Path, required=True,
                       help="path of the SQLite artifact store to "
                            "create (must not exist)")
    run_p.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1: in-process)")
    run_p.set_defaults(func=_cmd_run)

    resume_p = commands.add_parser(
        "resume", help="resume an interrupted campaign from its store")
    resume_p.add_argument("store", type=Path,
                          help="path to an existing campaign store")
    resume_p.add_argument("--workers", type=int, default=1,
                          help="worker processes (default 1)")
    resume_p.set_defaults(func=_cmd_resume)

    status_p = commands.add_parser(
        "status", help="show a campaign store's progress counts")
    status_p.add_argument("store", type=Path,
                          help="path to an existing campaign store")
    status_p.set_defaults(func=_cmd_status)

    export_p = commands.add_parser(
        "export", help="write a store's deterministic JSON export")
    export_p.add_argument("store", type=Path,
                          help="path to an existing campaign store")
    export_p.add_argument("--out", type=Path, default=None,
                          help="output JSON path (default: stdout)")
    export_p.set_defaults(func=_cmd_export)

    report_p = commands.add_parser(
        "report", help="render a store's telemetry: shard duration "
                       "percentiles, throughput, worker utilization, "
                       "slowest spans")
    report_p.add_argument("store", type=Path,
                          help="path to an existing campaign store")
    report_p.add_argument("--json", action="store_true",
                          help="emit the report as machine-readable "
                               "JSON instead of the rendered table")
    report_p.add_argument("--perfetto-out", type=Path, default=None,
                          help="also write the shard timeline as a "
                               "Chrome/Perfetto trace_event JSON file")
    report_p.set_defaults(func=_cmd_report)
