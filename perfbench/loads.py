"""The three workloads: a fleet campaign, served jobs and live streams.

Each workload class has the same four steps, which ``run.py`` times
and orders: ``setup`` (store creation or server boot, stream opening
and one warm-up operation), ``measure`` (the timed phase), ``check``
(correctness, outside the timed phase) and ``close``.  Every input is
derived from the benchmark seed; the program only ever sees the
generated scenarios.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.checks import (
    check_job_artifact,
    check_shard_row,
    check_stream_blocks,
)
from perfbench.stats import percentile
from perfbench.tracing import pair_jobs, pair_pushes

#: The sensor every workload wears: the paper's glucose electrode.
COHORT = {"sensor": "glucose/this-work", "analyte": "glucose",
          "wander_sigma_a": 2e-9}

#: Finger-stick recalibration every 6 h, refit beyond 8 % error.
RECALIBRATION = {"reference_interval_h": 6.0, "tolerance": 0.08}

#: Seconds a single request or job may take before it counts as failed.
OP_TIMEOUT_S = 60.0


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def derive_seed(seed: int, *path: int) -> int:
    """An independent 32-bit seed for input ``path`` under ``seed``."""
    sequence = np.random.SeedSequence([seed, *path])
    return int(sequence.generate_state(1, np.uint32)[0])


def _scenario(workload: str, name: str, spec: dict, seed) -> dict:
    from repro.scenarios import Scenario

    return Scenario(workload=workload, name=name, spec=spec,
                    seed=seed).to_dict()


def _join(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=OP_TIMEOUT_S * 2)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")


@dataclass
class Outcome:
    """What one measured phase produced.

    Attributes:
        attempted / failed: operations started and operations that
            errored, timed out or returned a wrong output.
        elapsed_s: wall time of the phase.
        throughput: channel-samples per second, the median over the
            phase's rounds.
        latencies_s: per-operation latency (``inf`` for a failure).
        tail_window: operations per tail estimate (None: all at once).
        problems: messages of failed correctness checks.
        extra: workload-specific figures for the report.
    """

    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    throughput: float = 0.0
    latencies_s: list = field(default_factory=list)
    tail_window: "int | None" = None
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# -- fleet ----------------------------------------------------------------

class Fleet:
    """Offline population campaign through ``run_campaign``.

    Shards of 16 wearers x 2 weeks of 5-minute monitor readings,
    ``keep_traces`` off, fanned over ``nproc`` worker processes.  The
    shard count is the run length times :data:`SHARDS_PER_WORKER_S`
    times the worker count, so the inputs depend only on seed, run
    length and host size.
    """

    name = "fleet"
    op = "shards"
    #: Shards per second per worker at seed on the reference host,
    #: frozen so later commits run the same campaigns.
    SHARDS_PER_WORKER_S = 16.0
    #: Campaigns per run; throughput is their median.
    ROUNDS = 3
    READINGS = 16 * int(336.0 * 3600.0 // 300.0)
    #: Tail percentile per campaign, frozen at what the seed run supports.
    TAIL_CAP = 95.0
    #: Shards re-run directly by the correctness check.
    SPOT_CHECKS = 4
    BASE = {"cohort": dict(COHORT, n_patients=16), "duration_h": 336.0,
            "sample_period_s": 300.0, "keep_traces": False,
            "recalibration": RECALIBRATION}

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.workers = nproc()
        self._stores = itertools.count()

    def _spec(self, n_shards: int, salt: int):
        from repro.campaigns import CampaignSpec
        from repro.scenarios import Scenario

        base = Scenario(workload="monitor", name="wear-fortnight",
                        spec=self.BASE)
        return CampaignSpec(name="perfbench-fleet", base=base,
                            n_shards=n_shards,
                            seed=derive_seed(self.seed, 0, salt))

    def _store_path(self) -> Path:
        return self.work_dir / f"fleet-{next(self._stores)}.sqlite"

    def setup(self, index: int):
        """Create a store and run one warm-up shard in-process."""
        from repro.campaigns import run_campaign

        run_campaign(self._spec(1, 1000 + index), self._store_path(),
                     workers=1)
        return None

    def measure(self, ctx, seconds: float) -> Outcome:
        """:data:`ROUNDS` campaigns, each sized to its share of the run."""
        from repro.campaigns import ArtifactStore, run_campaign, shard_timings

        n_shards = max(2 * self.workers, round(
            seconds / self.ROUNDS * self.SHARDS_PER_WORKER_S
            * self.workers))
        outcome = Outcome(tail_window=n_shards,
                          extra={"rows": [], "workers": self.workers})
        rates = []
        start = time.perf_counter()
        for salt in range(self.ROUNDS):
            path = self._store_path()
            began = time.perf_counter()
            run_campaign(self._spec(n_shards, salt), path,
                         workers=self.workers)
            elapsed = time.perf_counter() - began
            with ArtifactStore.open(path) as store:
                rows = store.export_rows()
                timings = shard_timings(store.telemetry_events())
            durations = {t.shard_index: t.duration_s for t in timings
                         if t.status == "done"}
            done = sum(row["status"] == "done" for row in rows)
            outcome.attempted += n_shards
            outcome.failed += n_shards - done
            outcome.latencies_s += [
                durations.get(row["shard_index"], float("inf"))
                for row in rows]
            outcome.extra["rows"] += [(path, row) for row in rows]
            rates.append(self.READINGS * done / elapsed)
        outcome.elapsed_s = time.perf_counter() - start
        outcome.throughput = percentile(rates, 50.0)
        return outcome

    def pair_spans(self, spans, window, outcome: Outcome) -> dict:
        """The campaign figures come straight from the spans."""
        return {}

    def check(self, ctx, outcome: Outcome) -> None:
        """Re-run a seeded sample of shards and compare their rows."""
        from repro.campaigns import ArtifactStore

        rows = outcome.extra.pop("rows")
        picks = random.Random(self.seed).sample(
            range(len(rows)), min(self.SPOT_CHECKS, len(rows)))
        for pick in sorted(picks):
            path, row = rows[pick]
            if row["result"] is None:
                outcome.problems.append(f"shard {pick} not done")
                continue
            with ArtifactStore.open(path) as store:
                problem = check_shard_row(store, row["shard_index"],
                                          row["result"])
            if problem:
                outcome.problems.append(problem)

    def close(self, ctx) -> None:
        """Nothing stays open between phases."""


# -- shared server plumbing -----------------------------------------------

class _Served:
    """Boot / stop of the in-process front door with default settings."""

    def _boot(self):
        from repro.serve import ServeClient, ServerThread

        thread = ServerThread().start()
        client = ServeClient(thread.host, thread.port,
                             timeout_s=OP_TIMEOUT_S)
        return thread, client

    def close(self, ctx) -> None:
        """Stop the server thread."""
        ctx["thread"].stop()


# -- jobs -----------------------------------------------------------------

class Jobs(_Served):
    """Closed loop of ``nproc`` clients: submit -> wait -> result.

    Estimation scenarios of 32 wearers x 3 days with smoothing on; job
    ``i`` is seeded by ``(seed, i)``; the job count is the run length
    times :data:`JOBS_PER_S`, so the inputs depend only on seed and run
    length.
    """

    name = "jobs"
    op = "jobs"
    #: Jobs per second of run length: the seed's rate on the reference
    #: host, frozen, so a run of 20 s or more has 10 jobs beyond p90.
    JOBS_PER_S = 6.5
    TAIL_CAP = 90.0
    ROUNDS = 3
    SPOT_CHECKS = 6
    SPEC = {"cohort": dict(COHORT, n_patients=32), "duration_h": 72.0,
            "sample_period_s": 300.0, "smooth": True,
            "recalibration": RECALIBRATION}
    READINGS = 32 * int(72.0 * 3600.0 // 300.0)

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def _job(self, index: int) -> dict:
        return _scenario("estimation", f"job-{index}", self.SPEC,
                         derive_seed(self.seed, 1, index))

    def _run_job(self, client, scenario: dict):
        job = client.submit(scenario)
        client.wait_for_job(job["job_id"], timeout_s=OP_TIMEOUT_S)
        return client.result(job["job_id"])

    def setup(self, index: int):
        """Boot the server and run one warm-up job through it."""
        thread, client = self._boot()
        self._run_job(client, _scenario(
            "estimation", "warm-up", self.SPEC,
            derive_seed(self.seed, 9, index)))
        return {"thread": thread, "client": client}

    def measure(self, ctx, seconds: float) -> Outcome:
        """Clients draw job indices until the run's job count is taken.

        Throughput is the median over :data:`ROUNDS` consecutive index
        groups, each timed from its first submit to its last result.
        """
        from repro.serve import ServeError

        client = ctx["client"]
        n_clients = min(nproc(), ctx["thread"].server.queue_size)
        n_jobs = max(self.ROUNDS * n_clients,
                     round(seconds * self.JOBS_PER_S))
        counter = iter(range(n_jobs))
        lock = threading.Lock()
        records: list[tuple] = []

        def loop() -> None:
            while True:
                with lock:
                    index = next(counter, None)
                if index is None:
                    return
                scenario = self._job(index)
                began = time.perf_counter()
                try:
                    artifact = self._run_job(client, scenario)
                except (ServeError, OSError, TimeoutError) as error:
                    artifact = error
                records.append((index, scenario, artifact, began,
                                time.perf_counter()))

        threads = [threading.Thread(target=loop, name=f"client-{i}")
                   for i in range(n_clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        _join(threads)
        elapsed = time.perf_counter() - start
        records.sort(key=lambda record: record[0])
        ok = [r for r in records if isinstance(r[2], dict)]
        rates = []
        size = n_jobs // self.ROUNDS
        for first in range(0, size * self.ROUNDS, size):
            group = records[first:first + size]
            span = max(r[4] for r in group) - min(r[3] for r in group)
            rates.append(self.READINGS * sum(
                isinstance(r[2], dict) for r in group) / span)
        return Outcome(
            attempted=len(records), failed=len(records) - len(ok),
            elapsed_s=elapsed,
            throughput=percentile(rates, 50.0),
            latencies_s=[r[4] - r[3] if isinstance(r[2], dict)
                         else float("inf") for r in records],
            extra={"records": records, "clients": n_clients,
                   "latency_by_seed": {r[1]["seed"]: r[4] - r[3]
                                       for r in ok}})

    def pair_spans(self, spans, window, outcome: Outcome) -> dict:
        """Job wait (latency minus compute) and requests per job."""
        return pair_jobs(spans, window, outcome.extra["latency_by_seed"])

    def check(self, ctx, outcome: Outcome) -> None:
        """Re-run evenly spaced completed jobs directly."""
        ok = [r for r in outcome.extra.pop("records")
              if isinstance(r[2], dict)]
        step = max(1, len(ok) // self.SPOT_CHECKS)
        for _, scenario, artifact, _, _ in ok[::step][:self.SPOT_CHECKS]:
            problem = check_job_artifact(scenario, artifact)
            if problem:
                outcome.problems.append(problem)


# -- streams --------------------------------------------------------------

class Streams(_Served):
    """Open loop of 12-reading pushes over 8 live estimation streams.

    Each stream is 4 wearers with a 30-day horizon and smoothing off.
    Pushes go round-robin over the streams on a fixed schedule, and
    every push is timed from when it was due.  One sender, the calling
    thread, sends them: more sender threads would contend with the
    in-process server for the interpreter lock, which clients in their
    own processes do not.  When the streams run low, they are closed
    between two timed segments and the next 8 are opened.
    """

    name = "streams"
    op = "pushes"
    N_STREAMS = 4 * 2
    BLOCK = 12
    SPEC = {"cohort": dict(COHORT, n_patients=4), "duration_h": 720.0,
            "sample_period_s": 300.0, "smooth": False,
            "recalibration": RECALIBRATION}
    PUSHES_PER_STREAM = int(720.0 * 3600.0 // 300.0) // BLOCK
    READINGS_PER_PUSH = 4 * BLOCK
    #: Pushes per second at the nominal load: about half the seed's
    #: ``max_push_rate_per_s`` on the reference host (270 to 360 with
    #: the process on one CPU), frozen.
    NOMINAL_RATE = 160.0
    #: Latency limit on the tail of a push, from its due time.
    LIMIT_S = 0.050
    #: Push latency tail: p95 of each 200-push window, median over the
    #: windows; the rate search holds the same percentile to the limit.
    TAIL_CAP = 95.0
    WINDOW = 200
    #: The sender sleeps until this long before a push is due and
    #: spins the rest, so a push is not late by the time the host takes
    #: to wake a sleeping thread.
    SPIN_S = 0.002
    #: Seconds per round of nominal load followed by saturation; the
    #: rounds spread both over the run, so a slow spell of the host
    #: weighs on each figure alike.
    ROUND_S = 1.5
    #: Pushes per stream a saturated segment may need (2000 pushes).
    SATURATED_ROOM = 250
    #: Rate search: pushes per step, and steps between the nominal and
    #: the saturated rate.
    STEP_PUSHES = 300
    BISECTIONS = 4

    def __init__(self, seed: int, work_dir: Path, capacity: bool = True
                 ) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.capacity = capacity

    def _stream(self, index: int) -> dict:
        return _scenario("estimation", f"stream-{index}", self.SPEC,
                         derive_seed(self.seed, 2, index))

    def _open(self, ctx, generation: int) -> None:
        """Open the streams of ``generation``, each at cursor 0."""
        first = generation * self.N_STREAMS
        scenarios = [self._stream(first + k) for k in range(self.N_STREAMS)]
        ctx.update(
            generation=generation, scenarios=scenarios,
            ids=[ctx["client"].create_stream(s)["stream_id"]
                 for s in scenarios],
            cursor=[0] * self.N_STREAMS,
            blocks=[[] for _ in range(self.N_STREAMS)],
            pushes=[0] * self.N_STREAMS)

    def setup(self, index: int):
        """Boot the server, open every stream, push one warm-up block."""
        thread, client = self._boot()
        ctx = {"thread": thread, "client": client, "retired": []}
        self._open(ctx, 0)
        if not self._push(ctx, 0)[0]:
            raise RuntimeError("warm-up push failed")
        return ctx

    def _ensure_room(self, ctx, per_stream: int) -> None:
        """Replace the streams unless each has ``per_stream`` pushes left.

        The old streams are deleted and their blocks kept for the check.
        """
        if self.PUSHES_PER_STREAM - max(ctx["pushes"]) >= per_stream:
            return
        for stream_id in ctx["ids"]:
            ctx["client"].delete_stream(stream_id)
        ctx["retired"] += zip(ctx["scenarios"], ctx["blocks"])
        self._open(ctx, ctx["generation"] + 1)

    def _push(self, ctx, stream: int) -> tuple[bool, int]:
        """One push; returns (ok, start) and keeps the returned block."""
        from repro.serve import ServeError

        expected = ctx["cursor"][stream]
        try:
            response = ctx["client"].push_readings(ctx["ids"][stream],
                                                   self.BLOCK)
        except (ServeError, OSError):
            return False, expected
        block = response["values"]["filtered_concentration_molar"]
        ok = (response["start"] == expected
              and response["stop"] == expected + self.BLOCK
              and len(block) == 4 and len(block[0]) == self.BLOCK)
        ctx["cursor"][stream] = response["stop"]
        ctx["pushes"][stream] += 1
        ctx["blocks"][stream].append((response["start"], np.asarray(block)))
        return ok, expected

    def _schedule(self, ctx, rate: float, n: int,
                  seconds: float = math.inf) -> list[dict]:
        """Send up to ``n`` pushes round-robin, push ``i`` due ``i / rate``
        seconds from now, and stop after ``seconds``.

        The one sender is the calling thread; ``rate=inf`` sends
        back-to-back, a closed loop.  The sender spins the last
        :data:`SPIN_S` before each due time.
        """
        records: list[dict] = []
        t0 = time.perf_counter()
        for i in range(n):
            stream = i % self.N_STREAMS
            due = t0 + i / rate
            now = time.perf_counter()
            if now - t0 >= seconds:
                break
            if due - now > self.SPIN_S:
                time.sleep(due - now - self.SPIN_S)
            while time.perf_counter() < due:
                pass
            sent = time.perf_counter()
            ok, start = self._push(ctx, stream)
            records.append({"due": due, "sent": sent,
                            "done": time.perf_counter(), "ok": ok,
                            "seed": ctx["scenarios"][stream]["seed"],
                            "start": start})
        return records

    @staticmethod
    def _latencies(records: list[dict]) -> list[float]:
        return [r["done"] - r["due"] if r["ok"] else float("inf")
                for r in records]

    def _step(self, ctx, rate: float) -> tuple[bool, float, list]:
        """One search step: (meets the limit, tail latency, records)."""
        self._ensure_room(ctx, -(-self.STEP_PUSHES // self.N_STREAMS))
        records = self._schedule(ctx, rate, self.STEP_PUSHES)
        latencies = self._latencies(records)
        tail = percentile(latencies, self.TAIL_CAP)
        quarter = max(1, len(records) // 4)
        lags = [r["sent"] - r["due"] for r in records]
        growing = (percentile(lags[-quarter:], 50.0)
                   - percentile(lags[:quarter], 50.0)) > self.LIMIT_S / 5
        return tail <= self.LIMIT_S and not growing, tail, records

    def _max_rate(self, ctx, nominal_tail: float, ceiling: float,
                  budget_s: float) -> tuple[float, list, list]:
        """Bisect for the highest rate meeting the limit.

        The search starts between the nominal rate and ``ceiling``, the
        saturated rate: an open loop at the sender's ceiling has no
        slack, so it counts as failing.  Each step tries the geometric
        mean of the last passing and first failing rate.  Between those
        two the answer is interpolated linearly on the tail latency, or
        is the passing rate when the failing one has no measured tail.
        The search stops after :data:`BISECTIONS` steps or ``budget_s``.
        """
        deadline = time.perf_counter() + budget_s
        passed = (self.NOMINAL_RATE, nominal_tail)
        failed = (max(ceiling, self.NOMINAL_RATE), float("inf"))
        if nominal_tail > self.LIMIT_S:
            failed, passed = passed, (0.0, 0.0)
        steps, records = [], []
        for _ in range(self.BISECTIONS):
            if time.perf_counter() >= deadline:
                break
            rate = (passed[0] * failed[0]) ** 0.5 if passed[0] else \
                failed[0] / 2
            ok, tail, step = self._step(ctx, rate)
            steps.append((rate, tail, ok))
            records += step
            if ok:
                passed = (rate, tail)
            else:
                failed = (rate, tail)
        (low, low_tail), (high, high_tail) = passed, failed
        if high_tail == float("inf"):
            return low, steps, records
        share = (self.LIMIT_S - low_tail) / (high_tail - low_tail)
        return low + (high - low) * share, steps, records

    def _saturate(self, ctx, seconds: float) -> tuple[int, float, list]:
        """Push back-to-back for ``seconds``.

        Returns the pushes that succeeded, the seconds they took and the
        records.
        """
        self._ensure_room(ctx, self.SATURATED_ROOM)
        room = self.N_STREAMS * (self.PUSHES_PER_STREAM
                                 - max(ctx["pushes"]))
        records = self._schedule(ctx, math.inf, room, seconds)
        return (sum(r["ok"] for r in records),
                records[-1]["done"] - records[0]["sent"], records)

    def measure(self, ctx, seconds: float) -> Outcome:
        """Rounds of nominal load and saturation, then a rate search.

        The run is cut into rounds of about :data:`ROUND_S`.  Untraced,
        a round holds :data:`NOMINAL_RATE` for three quarters of its
        time (push latency) and saturates the sender for the rest.  Push
        throughput is all saturated pushes over all their time.  The
        rounds take four fifths of the run and the rate search gets the
        last fifth.  A traced run holds the nominal rate throughout.
        """
        rounds_s = seconds * 0.8 if self.capacity else seconds
        rounds = max(1, round(rounds_s / self.ROUND_S))
        nominal_s = rounds_s / rounds * (0.75 if self.capacity else 1.0)
        n_nominal = max(1, round(self.NOMINAL_RATE * nominal_s))
        start = time.perf_counter()
        records, saturated, all_records = [], [], []
        for _ in range(rounds):
            self._ensure_room(ctx, -(-n_nominal // self.N_STREAMS))
            nominal = self._schedule(ctx, self.NOMINAL_RATE, n_nominal)
            records += nominal
            all_records += nominal
            if self.capacity:
                done, took, more = self._saturate(
                    ctx, rounds_s / rounds * 0.25)
                saturated.append((done, took))
                all_records += more
        nominal_end = time.perf_counter()
        latencies = self._latencies(records)
        lags = [r["sent"] - r["due"] for r in records]
        extra = {"nominal_records": records,
                 "nominal_rate_per_s": self.NOMINAL_RATE,
                 "generator_lag_max_ms": max(lags) * 1e3,
                 "generator_lag_p50_ms": percentile(lags, 50.0) * 1e3,
                 "window": (start, nominal_end)}
        if self.capacity:
            nominal_tail = percentile(latencies, self.TAIL_CAP)
            ceiling = (sum(done for done, _ in saturated)
                       / sum(took for _, took in saturated))
            rate, steps, searched = self._max_rate(
                ctx, nominal_tail, ceiling, seconds * 0.2)
            all_records += searched
            extra.update(saturated_pushes_per_s=ceiling,
                         saturated_rounds_per_s=[
                             done / took for done, took in saturated],
                         max_push_rate_per_s=rate, rate_search=steps)
        failed = sum(not r["ok"] for r in all_records)
        return Outcome(
            attempted=len(all_records), failed=failed,
            elapsed_s=time.perf_counter() - start,
            throughput=(extra.get("saturated_pushes_per_s", 0.0)
                        * self.READINGS_PER_PUSH),
            latencies_s=latencies, tail_window=self.WINDOW, extra=extra)

    def pair_spans(self, spans, window, outcome: Outcome) -> dict:
        """Push overhead over ``advance`` and the generator's lag."""
        return pair_pushes(spans, outcome.extra["nominal_records"])

    def check(self, ctx, outcome: Outcome) -> None:
        """Pushed filtered estimates against each stream's batch run."""
        from repro.engine.core import run_workload
        from repro.scenarios import workload_by_name

        workload = workload_by_name("estimation")
        for scenario, blocks in ctx["retired"] + list(
                zip(ctx["scenarios"], ctx["blocks"])):
            plan = workload.build_plan(scenario["spec"], scenario["seed"])
            batch = run_workload("estimation", plan)
            outcome.problems += check_stream_blocks(
                batch.filtered_concentration_molar, blocks)
