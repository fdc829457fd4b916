"""Bench: campaign fan-out throughput and the crash/resume guarantee.

Two gates on one 64-shard monitor campaign:

* **throughput** — the multi-worker ``ProcessPoolExecutor`` path must
  run the campaign at least ``CAMPAIGN_SPEEDUP_FLOOR``x (default 2x)
  faster than the in-process single-worker path, *and* write a
  byte-identical export while doing it.  Each path's time is the best
  of :data:`ROUNDS` runs, the two paths alternating within every round
  so slow drift on the host hits both alike.  The assertion needs real
  parallel hardware, so it is skipped (and recorded as ungated in the
  JSON) on single-CPU machines; CI runners gate it.
* **crash/resume** — a throttled subprocess campaign is ``SIGKILL``ed
  (whole process group, like a machine crash) mid-shard and resumed
  from its store; the final export must be byte-identical to the
  uninterrupted single-worker reference.

Both land in ``BENCH_campaign.json`` so fleet throughput is tracked
across PRs alongside the engine speedups.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaigns import (
    ArtifactStore,
    CampaignReport,
    CampaignSpec,
    resume_campaign,
    run_campaign,
)
from repro.campaigns.runner import THROTTLE_ENV
from repro.scenarios import Scenario

from harness import floor_from_env

REPO_ROOT = Path(__file__).resolve().parent.parent

N_SHARDS = 64
MULTI_WORKERS = 4
#: Interleaved single/multi rounds; each path's best round is gated.
ROUNDS = 5
KILL_SHARDS = 16
KILL_THROTTLE_S = 0.15


def _effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fleet_spec(n_shards: int) -> CampaignSpec:
    """A 64-way fleet of two-week, 16-patient wear simulations."""
    return CampaignSpec(
        name="bench-fleet", n_shards=n_shards, seed=2012,
        base=Scenario(
            workload="monitor", name="wear",
            spec={"cohort": {"sensor": "glucose/this-work",
                             "analyte": "glucose", "n_patients": 16},
                  "duration_h": 336.0, "sample_period_s": 300.0,
                  "keep_traces": False}))


def _export(store_path: Path) -> str:
    with ArtifactStore.open(store_path) as store:
        return store.export_json()


def _kill_resume_drill(spec: CampaignSpec, reference_export: str,
                       tmp_path: Path) -> dict:
    """SIGKILL a throttled subprocess campaign mid-shard and resume it.

    Returns the JSON payload fields; asserts byte-identity.
    """
    spec_file = spec.save(tmp_path / "kill-fleet.json")
    store_path = tmp_path / "killed.sqlite"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env[THROTTLE_ENV] = str(KILL_THROTTLE_S)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         str(spec_file), "--store", str(store_path), "--workers", "2"],
        env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            assert process.poll() is None, \
                "campaign finished before the kill landed"
            if store_path.exists():
                try:
                    with ArtifactStore.open(store_path,
                                            readonly=True) as store:
                        if store.counts()["done"] >= 2:
                            break
                except ValueError:
                    pass  # store mid-creation
            time.sleep(0.02)
        else:
            pytest.fail("campaign never reached the kill point")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    time.sleep(0.1)
    with ArtifactStore.open(store_path, readonly=True) as store:
        killed_counts = store.counts()
    assert killed_counts["done"] < spec.n_shards, \
        "kill landed after completion; raise the throttle"
    report = resume_campaign(store_path, workers=1)
    assert report.counts["done"] == spec.n_shards
    resumed_identical = _export(store_path) == reference_export
    assert resumed_identical, \
        "resumed store export differs from the uninterrupted run"
    return {
        "kill_n_shards": spec.n_shards,
        "kill_done_at_kill": killed_counts["done"],
        "kill_resumed_shards": report.n_executed,
        "resume_byte_identical": resumed_identical,
    }


def _interleaved_best_runs(spec: CampaignSpec, tmp_path: Path
                           ) -> "tuple[CampaignReport, CampaignReport]":
    """The fastest single-worker and :data:`MULTI_WORKERS` runs of
    ``spec`` over :data:`ROUNDS` rounds, the two alternating within
    each round (as ``bench_core.py``'s ``_interleaved_overhead``
    samples its contenders).  Every run must finish every shard and
    export the first single-worker run's bytes."""
    runs: "dict[int, list[CampaignReport]]" = {1: [], MULTI_WORKERS: []}
    reference_export = None
    for round_index in range(ROUNDS):
        for workers, reports in runs.items():
            path = tmp_path / f"w{workers}-round{round_index}.sqlite"
            report = run_campaign(spec, path, workers=workers)
            assert report.counts["done"] == N_SHARDS
            export = _export(path)
            reference_export = reference_export or export
            assert export == reference_export, \
                f"{workers}-worker store export differs from single-worker"
            reports.append(report)
    return tuple(min(reports, key=lambda report: report.elapsed_s)
                 for reports in runs.values())


def test_campaign_throughput_and_crash_resume(bench_json, tmp_path):
    """The campaign runner's two acceptance gates, one JSON record."""
    floor = floor_from_env("CAMPAIGN_SPEEDUP_FLOOR", default=2.0)
    cpus = _effective_cpus()
    single, multi = _interleaved_best_runs(_fleet_spec(N_SHARDS), tmp_path)
    speedup = single.elapsed_s / multi.elapsed_s
    speedup_gated = cpus >= 2

    drill = _kill_resume_drill(
        _fleet_spec(KILL_SHARDS), _export_reference_for(
            _fleet_spec(KILL_SHARDS), tmp_path), tmp_path)

    payload = dict(
        n_shards=N_SHARDS,
        workers=MULTI_WORKERS,
        rounds=ROUNDS,
        effective_cpus=cpus,
        single_wall_s=single.elapsed_s,
        multi_wall_s=multi.elapsed_s,
        single_shards_per_s=single.throughput_shards_per_s,
        multi_shards_per_s=multi.throughput_shards_per_s,
        speedup=speedup,
        speedup_floor=floor,
        speedup_gated=speedup_gated,
        **drill,
    )
    path = bench_json("campaign", **payload)
    print(f"\ncampaign fan-out, best of {ROUNDS} interleaved rounds: "
          f"single {single.elapsed_s:.2f} s, "
          f"{MULTI_WORKERS} workers {multi.elapsed_s:.2f} s -> "
          f"{speedup:.1f}x (floor {floor:.1f}x, "
          f"{'gated' if speedup_gated else 'ungated: single CPU'}); "
          f"kill at {drill['kill_done_at_kill']}/{KILL_SHARDS} done, "
          f"resume byte-identical -> {path}")
    if speedup_gated:
        assert speedup >= floor, (
            f"multi-worker speedup {speedup:.2f}x below the "
            f"{floor:.1f}x floor on {cpus} CPUs")


def _export_reference_for(spec: CampaignSpec, tmp_path: Path) -> str:
    """Uninterrupted single-worker reference export for ``spec``."""
    store_path = tmp_path / "kill-reference.sqlite"
    run_campaign(spec, store_path, workers=1)
    return _export(store_path)
