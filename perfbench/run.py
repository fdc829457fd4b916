"""One end-to-end benchmark of the biosensor system: fleet, jobs, streams.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload once untraced and once with spans
around every layer's entry points, and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
same numbers by the names the notes use, with the host facts.  A
detailed report goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per run, and imports (this process's and those of fresh
#: interpreters); ``setup_s`` adds the two medians.
SETUP_REPS = 3
IMPORT_REPS = 3

#: Modules each workload imports before its first operation.
IMPORTS = {"fleet": ("repro.campaigns", "repro.scenarios"),
           "jobs": ("repro.serve", "repro.scenarios"),
           "streams": ("repro.serve", "repro.scenarios")}

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "readings_per_s": "1/s",
             "latency_p50_ms": "ms"}

#: The names the notes give the generic metrics on each workload.
ALIASES = {
    "fleet": {"latency_p50_ms": "shard_p50_ms",
              "latency_tail_ms": "shard_tail_ms"},
    "jobs": {"latency_p50_ms": "job_p50_ms",
             "latency_tail_ms": "job_tail_ms"},
    "streams": {"latency_p50_ms": "push_p50_ms",
                "latency_tail_ms": "push_tail_ms",
                "readings_per_s": "saturated pushes/s x 48"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_facts() -> dict:
    """What the absolute numbers depend on, taken at start."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "loadavg_1m": os.getloadavg()[0],
            "python": platform.python_version()}


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts later, on one CPU.

    A push passes from the sender to the server's event loop and worker
    thread and back.  Spread over two virtual CPUs, each hand-off wakes
    an idle one, and on a shared host that wake-up took from nothing to
    2.5 ms per push between runs; on one CPU a hand-off is a context
    switch.  The sender waits for each reply, so no work is serialised
    that could otherwise overlap.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this process (and its largest child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def fresh_import_s(workload: str) -> float:
    """Seconds a fresh interpreter takes to import the workload's modules.
    """
    code = ("import importlib, time\n"
            "start = time.perf_counter()\n"
            f"for module in {IMPORTS[workload]!r}:\n"
            "    importlib.import_module(module)\n"
            "print(time.perf_counter() - start)\n")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return float(done.stdout)


def run_setup(load, reps: int):
    """Set up ``reps`` times; keep the last context, return the times."""
    times, ctx = [], None
    for index in range(reps):
        if ctx is not None:
            load.close(ctx)
        start = time.perf_counter()
        ctx = load.setup(index)
        times.append(time.perf_counter() - start)
    return ctx, times


def measure_e2e(load, seconds: float, import_times: list) -> tuple:
    """The untraced run: set-up, timed phase, checks."""
    from perfbench.stats import latency_summary

    ctx, setup_times = run_setup(load, SETUP_REPS)
    try:
        outcome = load.measure(ctx, seconds)
        load.check(ctx, outcome)
    finally:
        load.close(ctx)
    latency = latency_summary(outcome.latencies_s, load.TAIL_CAP,
                              outcome.tail_window)
    metrics = {
        "setup_s": (statistics.median(import_times)
                    + statistics.median(setup_times)),
        "peak_rss_mb": peak_rss_mb(with_children=load.name == "fleet"),
        "readings_per_s": outcome.throughput,
        "latency_p50_ms": latency["p50_ms"],
    }
    details = {"setup_times_s": setup_times, "import_times_s": import_times,
               "latency_tail_ms": latency["tail_ms"],
               "tail_percentile": latency["tail_q"],
               "latency_samples": latency["n"],
               "tail_window": latency["window"],
               "latencies_ms": [round(value * 1e3, 3)
                                for value in outcome.latencies_s]}
    return outcome, metrics, details


def _phase(load, seconds: float):
    """One set-up + measured phase; returns (outcome, window, ctx)."""
    ctx = load.setup(0)
    try:
        start = time.perf_counter()
        outcome = load.measure(ctx, seconds)
        window = outcome.extra.get("window",
                                   (start, time.perf_counter()))
    except BaseException:
        load.close(ctx)
        raise
    return outcome, window, ctx


def _headline_s(load, outcome) -> float:
    """Per-operation time the trace overhead is judged on."""
    if load.name == "fleet":
        return outcome.elapsed_s / max(outcome.attempted, 1)
    from perfbench.stats import percentile

    return percentile(outcome.latencies_s, 50.0)


def measure_layers(load, seconds: float) -> tuple:
    """The traced run: an untraced half, then a traced half."""
    from perfbench.tracing import Tracer, install, layer_metrics

    plain, _, ctx = _phase(load, seconds / 2)
    try:
        load.check(ctx, plain)
    finally:
        load.close(ctx)
    tracer = Tracer(load.work_dir)
    install(tracer)
    traced, window, ctx = _phase(load, seconds / 2)
    try:
        spans = tracer.collect()
        load.check(ctx, traced)
    finally:
        load.close(ctx)
    n_ops = (len(traced.extra["nominal_records"])
             if load.name == "streams" else traced.attempted)
    metrics = layer_metrics(spans, window, n_ops, load.TAIL_CAP)
    metrics.update(load.pair_spans(spans, window, traced))
    metrics["bench.trace_overhead"] = (_headline_s(load, traced)
                                       / _headline_s(load, plain))
    outcome = traced
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    outcome.problems += plain.problems
    return outcome, metrics, {"spans": len(spans)}, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro package; run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # measure the defaults, not the caller's knobs
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    host = host_facts()
    if args.workload == "streams":
        pin_to_one_cpu()
        host["cpus_used"] = 1

    start = time.perf_counter()
    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = time.perf_counter() - start

    import numpy
    import scipy

    from perfbench.loads import Fleet, Jobs, Streams
    from perfbench.tracing import UNITS

    host.update(numpy=numpy.__version__, scipy=scipy.__version__)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="work-"))
    try:
        if args.workload == "fleet":
            load = Fleet(args.seed, work_dir)
        elif args.workload == "jobs":
            load = Jobs(args.seed, work_dir)
        else:
            load = Streams(args.seed, work_dir, capacity=not args.trace)
        spans = None
        if args.trace:
            outcome, metrics, details, spans = measure_layers(
                load, args.seconds)
            units = UNITS
        else:
            outcome, metrics, details = measure_e2e(
                load, args.seconds, [import_s] + [
                    fresh_import_s(args.workload)
                    for _ in range(IMPORT_REPS - 1)])
            units = E2E_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = outcome.failed + len(outcome.problems)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "attempted": outcome.attempted, "failed": failed,
        "error_rate": failed / max(outcome.attempted, 1),
        "problems": outcome.problems[:20], "metrics": metrics,
        "details": details,
        "extra": {key: value for key, value in outcome.extra.items()
                  if key in ("rate_search", "max_push_rate_per_s",
                             "saturated_pushes_per_s",
                             "saturated_rounds_per_s",
                             "nominal_rate_per_s", "generator_lag_max_ms",
                             "generator_lag_p50_ms", "clients",
                             "workers")},
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=2))
    if spans is not None:
        with (OUT_DIR / f"{tag}-spans.jsonl").open("w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    aliases = ALIASES[args.workload]
    for name, value in metrics.items():
        alias = aliases.get(name) if not args.trace else None
        label = f"{name} ({alias})" if alias else name
        print(f"  {label:<44} {value:>14.6g} {units[name]}")
    if not args.trace:
        from perfbench.stats import percentile

        # Tails are printed, not bounded: see NOTES.md.
        label = f"latency_tail_ms ({aliases['latency_tail_ms']})"
        print(f"  {label:<44} {details['latency_tail_ms']:>14.6g} ms "
              f"(p{details['tail_percentile']:g} of "
              f"{details['latency_samples']} {load.op}"
              + (f", median over windows of {details['tail_window']}"
                 if details["tail_window"] < details["latency_samples"]
                 else "") + ")")
        print("  pooled: " + ", ".join(
            f"p{q:g} {percentile(outcome.latencies_s, q) * 1e3:.4g} ms"
            for q in (90, 95, 99)))
        if args.workload == "streams":
            print(f"  max_push_rate_per_s{'':<25} "
                  f"{outcome.extra['max_push_rate_per_s']:>14.6g} 1/s "
                  f"(nominal {load.NOMINAL_RATE:g}/s)")
    print(f"  error_rate{'':<34} {report['error_rate']:>14.6g} "
          f"({failed} failed of {outcome.attempted} {load.op})")
    for problem in outcome.problems[:5]:
        print(f"  check failed: {problem}")
    # A latency percentile past the failed operations is infinite;
    # strict JSON has no infinity, so it prints as the largest float.
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": min(value, sys.float_info.max),
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
