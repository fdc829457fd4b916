"""The scenario command line: ``python -m repro {run,list,describe}``.

One executable front door for every registered workload::

    python -m repro list                       # what can run
    python -m repro list --json                # machine-readable rows
    python -m repro describe therapy           # spec fields + example
    python -m repro serve --port 8750          # the async front door
    python -m repro run scenario.json          # execute a scenario file
    python -m repro run scenario.json --out results.json
    python -m repro run scenario.json --seed 11 --scalar
    python -m repro run scenario.json --telemetry \\
        --perfetto-out trace.json              # spans + flame graph
    python -m repro campaign run fleet.json --store fleet.sqlite \\
        --workers 4                            # sharded campaigns
    python -m repro campaign {status,resume,export,report} fleet.sqlite
    python -m repro telemetry summary fleet.sqlite  # fleet-wide metrics

``run`` prints the workload's summary and, with ``--out``, writes the
replayable artifact — the seed-resolved scenario envelope plus the full
result export — as JSON.  ``--telemetry`` (or ``REPRO_TELEMETRY=1``)
records executor spans and metrics, printing the per-span summary and
the metrics snapshot after the run; ``--trace-out`` streams the spans
to a JSONL file and ``--perfetto-out`` writes a flame-graph trace the
Perfetto UI opens directly.  The global ``--log-level`` / ``-v`` flags
configure the single ``repro`` stdlib logger (worker progress, resume
decisions).
Checked-in starter scenarios live under ``examples/scenarios/`` and
are smoke-run in CI.
"""

from __future__ import annotations

import argparse
import json
import logging
from pathlib import Path


def configure_logging(level_name: str | None = None,
                      verbosity: int = 0) -> int:
    """Wire the single ``repro`` root logger to the console.

    Every module in the package logs under ``repro.*`` (e.g.
    ``repro.campaigns.runner``), so one handler here covers them all
    and embedding applications that configure logging themselves are
    never fought over — the handler is only attached once, and only by
    the CLI.  Its :class:`~repro.telemetry.TraceIdFilter` prints the
    active trace id on every line (``-`` outside a trace).

    Args:
        level_name: explicit level (``--log-level``), wins over
            ``verbosity``.
        verbosity: ``-v`` count — 0 keeps WARNING, 1 means INFO,
            2+ means DEBUG.

    Returns:
        The numeric level that was applied.
    """
    if level_name is not None:
        level = getattr(logging, level_name.upper())
    elif verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    from repro.telemetry import TraceIdFilter

    logger = logging.getLogger("repro")
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.addFilter(TraceIdFilter())
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(name)s %(levelname)s [%(trace_id)s]: "
            "%(message)s"))
        logger.addHandler(handler)
        logger.propagate = False
    return level


def _cmd_run(args: argparse.Namespace) -> int:
    """Execute one scenario file, print its summary, export optionally."""
    from repro.scenarios.runner import (
        ScenarioRun,
        run_scenario,
        spawn_scenario_seeds,
    )
    from repro.scenarios.spec import Scenario
    from repro.telemetry import telemetry_session

    scenario = Scenario.load(args.scenario)
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    elif scenario.seed is None:
        # An unseeded file still yields a replayable --out artifact:
        # materialize an entropy-derived seed before running.
        scenario = scenario.with_seed(spawn_scenario_seeds(None, 1)[0])
    with telemetry_session(args.telemetry, args.trace_out,
                           args.perfetto_out):
        run = ScenarioRun(scenario=scenario,
                          result=run_scenario(scenario, scalar=args.scalar))
        print(run.summary())
    if args.out is not None:
        payload = run.to_dict(include_traces=args.traces)
        args.out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"results -> {args.out}")
    return 0


def workload_rows() -> list[dict]:
    """One machine-readable row per registered workload.

    The shared payload behind ``python -m repro list --json`` and the
    server's ``GET /workloads``: name, plan type, first doc line, and
    whether the workload's kernel set supports incremental streaming
    (``repro.serve``).
    """
    from repro.engine.core import kernels_for
    from repro.scenarios.protocols import available_workloads, workload_by_name

    rows = []
    for name in available_workloads():
        workload = workload_by_name(name)
        kernels = kernels_for(name)
        doc = (type(workload).__doc__ or "").strip().splitlines()[0]
        rows.append({
            "name": name,
            "plan_type": kernels.plan_type.__name__,
            "doc": doc,
            "streaming": kernels.snapshot_version is not None,
        })
    return rows


def _cmd_list(args: argparse.Namespace) -> int:
    """Print one line (or one JSON row) per registered workload."""
    rows = workload_rows()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    for row in rows:
        print(f"{row['name']:<12} {row['plan_type']:<12} {row['doc']}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    """Print one workload's spec documentation and example."""
    from repro.scenarios.protocols import workload_by_name

    try:
        workload = workload_by_name(args.workload)
    except KeyError as error:
        if args.json:
            print(json.dumps({"error": error.args[0]}))
        else:
            print(error.args[0])
        return 2
    if args.json:
        row = next(r for r in workload_rows()
                   if r["name"] == workload.name)
        print(json.dumps({**row,
                          "describe": workload.describe(),
                          "example_spec": workload.example_spec()},
                         indent=2, sort_keys=True))
        return 0
    print(workload.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (exposed for docs/tests)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative biosensor scenarios (calibration "
                    "campaigns, wear-time monitoring, closed-loop "
                    "therapy, concentration reconstruction) from JSON "
                    "files.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}",
                        help="print the repro package version and exit")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="level for the 'repro' stdlib logger "
                             "(default: warning)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (-v info, "
                             "-vv debug); --log-level wins if given")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute a scenario JSON file")
    run_p.add_argument("scenario", type=Path,
                       help="path to a scenario .json file")
    run_p.add_argument("--out", type=Path, default=None,
                       help="write the replayable scenario+result "
                            "artifact as JSON")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--scalar", action="store_true",
                       help="use the scalar equivalence-reference "
                            "engine path (slow)")
    run_p.add_argument("--traces", action="store_true",
                       help="include full per-sample traces in --out")
    run_p.add_argument("--telemetry", action="store_true",
                       help="record executor spans and metrics and print "
                            "both after the run")
    run_p.add_argument("--trace-out", type=Path, default=None,
                       help="stream spans to this JSONL "
                            "file (implies --telemetry)")
    run_p.add_argument("--perfetto-out", type=Path, default=None,
                       help="write a Chrome/Perfetto trace_event JSON "
                            "flame graph (implies --telemetry)")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="list registered workloads")
    list_p.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON rows")
    list_p.set_defaults(func=_cmd_list)

    describe_p = sub.add_parser(
        "describe", help="show a workload's spec fields and example")
    describe_p.add_argument("workload", help="registered workload name")
    describe_p.add_argument("--json", action="store_true",
                            help="emit the workload row, docs and "
                                 "example spec as JSON")
    describe_p.set_defaults(func=_cmd_describe)

    from repro.campaigns.cli import add_campaign_commands
    from repro.serve.cli import add_serve_command
    from repro.telemetry.cli import add_telemetry_commands

    add_campaign_commands(sub)
    add_serve_command(sub)
    add_telemetry_commands(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level, args.verbose)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
