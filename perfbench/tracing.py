"""Spans recorded from outside the program, around each layer's entry points.

:func:`install` replaces public functions and methods of the ``repro``
layers with ``functools.wraps`` wrappers that time every call into a
:class:`Tracer`.  Nothing under ``src/`` changes: the wrappers rebind
module attributes and class attributes at run time, so later commits of
the program are measured by the same benchmark code.

Spans live in memory.  A process forked by the campaign pool inherits
the wrappers; the wrapper around ``execute_shard`` appends that
worker's spans to ``spans-<pid>.jsonl`` after every shard (a worker is
never joined with its memory intact), and :meth:`Tracer.collect` reads
those files back once the run ends.  :func:`layer_metrics` turns the
spans into the per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from perfbench.stats import percentile

#: Public module-level functions: (module, attribute, span name).
FUNCTIONS = (
    ("repro.signal.drift", "ou_process_batch", "signal.ou"),
    ("repro.engine.monitor", "digitize_rows", "monitor.digitize"),
    ("repro.engine.monitor", "estimate_chunk_with_recalibration",
     "monitor.recalibration"),
    ("repro.inference.kalman", "kalman_filter_batch", "inference.filter"),
    ("repro.inference.kalman", "rts_smoother_batch", "inference.smoother"),
    ("repro.scenarios.runner", "run_scenario", "scenarios.run_scenario"),
    ("repro.campaigns.runner", "run_campaign", "campaigns.run"),
    ("repro.campaigns.runner", "execute_shard", "campaigns.shard"),
)

#: Public methods: (module, class, method, span name).
METHODS = (
    ("repro.engine.monitor", "MonitorKernels", "init_state",
     "core.init_state"),
    ("repro.engine.monitor", "MonitorKernels", "run_chunk", "core.chunk"),
    ("repro.engine.monitor", "MonitorKernels", "finalize", "core.finalize"),
    ("repro.engine.estimation", "EstimationKernels", "init_state",
     "core.init_state"),
    ("repro.engine.estimation", "EstimationKernels", "run_chunk",
     "core.chunk"),
    ("repro.engine.estimation", "EstimationKernels", "finalize",
     "core.finalize"),
    ("repro.scenarios.workloads", "MonitorWorkload", "build_plan",
     "scenarios.build_plan"),
    ("repro.scenarios.workloads", "EstimationWorkload", "build_plan",
     "scenarios.build_plan"),
    ("repro.scenarios.runner", "ScenarioRun", "to_dict",
     "serve.result_encode"),
    ("repro.serve.session", "StreamSession", "advance", "serve.advance"),
    ("repro.campaigns.store", "ArtifactStore", "open",
     "campaigns.store_open"),
) + tuple(("repro.serve.client", "ServeClient", method, "serve.http")
          for method in ("submit", "status", "result", "create_stream",
                         "push_readings"))


def _span_attrs(name: str, args: tuple) -> dict:
    """Keys that pair a span with the benchmark's own records."""
    if name == "scenarios.run_scenario":
        return {"seed": args[0].seed}
    if name == "serve.advance":
        return {"seed": args[0].plan.seed, "cursor": args[0].cursor}
    if name == "campaigns.shard":
        return {"shard": f"{args[0]}#{args[1]}"}
    if name.startswith("core."):
        return {"workload": args[0].name}
    return {}


class Tracer:
    """In-memory span store with per-thread nesting.

    Args:
        out_dir: where forked workers flush their spans.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[dict] = []
        self.pid = os.getpid()
        self.worker = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if os.getpid() != self.pid:
            # First span in a forked campaign worker: drop what the
            # parent had recorded before the fork.
            self.pid = os.getpid()
            self.worker = True
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        span_id = f"{self.pid}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "name": name, "id": span_id, "parent": parent,
                "start": start, "end": end, "pid": self.pid,
                "thread": threading.get_ident(), **attrs})

    def wrap(self, fn, name: str, flush: bool = False, **static):
        """A ``functools.wraps`` wrapper timing every call of ``fn``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **static, **_span_attrs(name, args)):
                result = fn(*args, **kwargs)
            if flush and self.worker:
                self.flush()
            return result

        return wrapper

    def flush(self) -> None:
        """Append this worker's spans to its file and forget them."""
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with path.open("a") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """The parent's spans plus every worker's flushed spans."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with path.open() as handle:
                spans.extend(json.loads(line) for line in handle)
        return spans


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point in :data:`FUNCTIONS` and :data:`METHODS`.

    Call after the ``repro`` modules are imported and before any server
    or pool that captures them starts.
    """
    import importlib

    for module_name, attr, span_name in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(
            original, span_name, flush=span_name == "campaigns.shard"))
    for module_name, class_name, attr, span_name in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        raw = vars(cls)[attr]
        static = {"method": attr} if span_name == "serve.http" else {}
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(
                tracer.wrap(raw.__func__, span_name, **static)))
        else:
            setattr(cls, attr, tracer.wrap(raw, span_name, **static))


# -- per-layer metrics ----------------------------------------------------

def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median_ms(durations: list[float]) -> float:
    return _ms(statistics.median(durations)) if durations else 0.0


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _in_window(span: dict, window: tuple[float, float]) -> bool:
    return window[0] <= span["start"] <= window[1]


def layer_metrics(spans: list[dict], window: tuple[float, float],
                  n_ops: int, tail_q: float) -> dict:
    """Per-layer numbers from the traced phase's spans.

    Args:
        spans: every span of the traced phase (set-up included).
        window: ``(start, end)`` of the measured part of the phase;
            per-op figures count only spans that start inside it.
        n_ops: operations completed inside the window.
        tail_q: the tail percentile used for shard durations.

    Returns:
        ``{metric name: value}``; a layer the workload never calls
        reads 0.  Serve pairings (job wait, push overhead) and the
        generator figures are added by the workload itself.
    """
    by_parent: dict = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)

    def children(span: dict) -> list[dict]:
        return by_parent.get(span["id"], [])

    def self_time(span: dict) -> float:
        return _duration(span) - sum(map(_duration, children(span)))

    inside = [span for span in spans if _in_window(span, window)]

    def named(name: str, pool: list[dict] = inside) -> list[dict]:
        return [span for span in pool if span["name"] == name]

    ops = max(n_ops, 1)

    def per_op_ms(name: str) -> float:
        return _ms(sum(map(_duration, named(name)))) / ops

    chunks = named("core.chunk")
    shards = named("campaigns.shard")
    shard_durations = [_duration(span) for span in shards]
    idle = []
    for campaign in named("campaigns.run"):
        mine = [span for span in shards
                if campaign["start"] <= span["start"] <= campaign["end"]]
        workers = len({span["pid"] for span in mine}) or 1
        idle.append(1.0 - sum(map(_duration, mine))
                    / (workers * _duration(campaign)))
    store = [_duration(span) - sum(
        _duration(child) for child in children(span)
        if child["name"] == "scenarios.run_scenario") for span in shards]
    http = named("serve.http")
    names = {span["id"]: span["name"] for span in spans}
    top_plans = [span for span in named("scenarios.build_plan", spans)
                 if names.get(span["parent"]) != "scenarios.build_plan"]
    estimation_finalize = [
        self_time(span) for span in named("core.finalize", spans)
        if span.get("workload") == "estimation"]
    return {
        "signal.ou_ms": per_op_ms("signal.ou"),
        "signal.ou_calls": len(named("signal.ou")) / ops,
        "monitor.digitize_ms": per_op_ms("monitor.digitize"),
        "monitor.recalibration_ms": per_op_ms("monitor.recalibration"),
        "engine.chunk_self_ms": _ms(sum(map(self_time, chunks))) / ops,
        "inference.filter_ms": per_op_ms("inference.filter"),
        "inference.smoother_ms": per_op_ms("inference.smoother"),
        "core.chunks_per_op": len(chunks) / ops,
        "core.chunk_ms": _median_ms([_duration(s) for s in chunks]),
        "core.init_state_ms": _median_ms(
            [_duration(s) for s in named("core.init_state", spans)]),
        "core.finalize_ms": _median_ms(
            [_duration(s) for s in named("core.finalize", spans)]),
        "estimation.finalize_ms": _median_ms(estimation_finalize),
        "scenarios.build_plan_ms": _median_ms(
            [_duration(s) for s in top_plans]),
        "campaigns.shard_p50_ms": _median_ms(shard_durations),
        "campaigns.shard_tail_ms": (
            _ms(percentile(shard_durations, tail_q))
            if shard_durations else 0.0),
        "campaigns.store_ms": _median_ms(store),
        "campaigns.store_opens_per_shard": (
            sum(child["name"] == "campaigns.store_open"
                for span in shards for child in children(span))
            / max(len(shards), 1)),
        "campaigns.worker_idle_frac": (
            statistics.median(idle) if idle else 0.0),
        "campaigns.retries": float(
            len(shards) - len({span.get("shard") for span in shards})
            if shards else 0),
        "serve.job_compute_ms": _median_ms(
            [_duration(s) for s in named("scenarios.run_scenario")
             if s["parent"] is None]),
        "serve.requests_per_job": 0.0,
        "serve.job_wait_ms": 0.0,
        "serve.result_encode_ms": _median_ms(
            [_duration(s) for s in named("serve.result_encode")]),
        "serve.advance_ms": _median_ms(
            [_duration(s) for s in named("serve.advance")]),
        "serve.push_overhead_ms": 0.0,
        "serve.stream_open_ms": _median_ms(
            [_duration(s) for s in named("serve.http", spans)
             if s.get("method") == "create_stream"]),
        "serve.http_rtt_ms": _median_ms([_duration(s) for s in http]),
        "bench.generator_lag_ms": 0.0,
        "bench.trace_overhead": 0.0,
    }


#: Unit of every per-layer metric.
UNITS = {
    name: ("ms" if name.endswith("_ms") else
           "ratio" if name in ("campaigns.worker_idle_frac",
                               "bench.trace_overhead") else "count")
    for name in layer_metrics([], (0.0, 0.0), 1, 50.0)}


def pair_jobs(spans: list[dict], window: tuple[float, float],
              latency_by_seed: dict) -> dict:
    """Client latency split into server compute and everything else.

    A job's compute span is the top-level ``run_scenario`` in the
    server's pool, matched to the client's record by scenario seed.
    """
    compute = {span["seed"]: _duration(span) for span in spans
               if span["name"] == "scenarios.run_scenario"
               and span["parent"] is None and _in_window(span, window)}
    waits = [latency - compute[seed]
             for seed, latency in latency_by_seed.items()
             if seed in compute]
    requests = sum(span["name"] == "serve.http"
                   and _in_window(span, window) for span in spans)
    return {"serve.job_wait_ms": _median_ms(waits),
            "serve.requests_per_job": requests / max(len(latency_by_seed),
                                                     1)}


def pair_pushes(spans: list[dict], records: list[dict]) -> dict:
    """Push round trip minus the server's ``advance`` for the same block.

    ``advance`` spans carry the stream's seed and start cursor, which
    the generator's records carry too.
    """
    advance = {(span["seed"], span["cursor"]): _duration(span)
               for span in spans if span["name"] == "serve.advance"}
    overheads = [record["done"] - record["sent"]
                 - advance[(record["seed"], record["start"])]
                 for record in records
                 if record["ok"] and (record["seed"], record["start"])
                 in advance]
    lags = [record["sent"] - record["due"] for record in records]
    return {"serve.push_overhead_ms": _median_ms(overheads),
            "bench.generator_lag_ms": _ms(max(lags)) if lags else 0.0}
