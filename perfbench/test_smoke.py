"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

A tiny run of every workload, untraced and traced, must print every
declared metric with its unit, and the correctness checks must catch a
deliberately corrupted output of each kind.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import (  # noqa: E402
    check_job_artifact,
    check_shard_row,
    check_stream_blocks,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A day of 10-minute readings for two wearers: cheap to run directly.
SMALL = {"cohort": {"sensor": "glucose/this-work", "analyte": "glucose",
                    "n_patients": 2},
         "duration_h": 24.0, "sample_period_s": 600.0}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)


def _corrupt(tree: dict, path: tuple) -> None:
    """Scale the number at ``path`` by 1 + 1e-6."""
    *parents, last = path
    for key in parents:
        tree = tree[key]
    tree[last] *= 1.0 + 1e-6


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(workload: str, trace: int):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "fleet", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_corrupted_job_artifact_is_caught():
    from repro.scenarios import Scenario, ScenarioRun, run_scenario

    scenario = Scenario(workload="estimation", name="smoke",
                        spec=dict(SMALL, smooth=True), seed=3)
    artifact = json.loads(json.dumps(
        ScenarioRun(scenario, run_scenario(scenario)).to_dict()))
    assert check_job_artifact(scenario.to_dict(), artifact) is None
    _corrupt(artifact, ("result", "channels", 0, "filtered_rmse_molar"))
    assert "filtered_rmse_molar" in check_job_artifact(
        scenario.to_dict(), artifact)


def test_corrupted_shard_row_is_caught(tmp_path: Path):
    from repro.campaigns import ArtifactStore, CampaignSpec, run_campaign
    from repro.scenarios import Scenario

    spec = CampaignSpec(name="smoke", n_shards=2, seed=5, base=Scenario(
        workload="monitor", name="smoke",
        spec=dict(SMALL, keep_traces=False)))
    run_campaign(spec, tmp_path / "store.sqlite", workers=1)
    with ArtifactStore.open(tmp_path / "store.sqlite") as store:
        row = store.export_rows()[1]["result"]
        assert check_shard_row(store, 1, row) is None
        _corrupt(row, ("cohort_mard",))
        assert "cohort_mard" in check_shard_row(store, 1, row)


def test_corrupted_stream_block_is_caught():
    from repro.engine.core import run_workload
    from repro.scenarios import workload_by_name
    from repro.serve import StreamSession

    plan = workload_by_name("estimation").build_plan(
        dict(SMALL, smooth=False), 11)
    session = StreamSession("estimation", plan)
    blocks = []
    while not session.done:
        update = session.advance(12)
        blocks.append((update.start, update.values[
            "filtered_concentration_molar"].tolist()))
    expected = run_workload("estimation", plan).filtered_concentration_molar
    assert check_stream_blocks(expected, blocks) == []
    blocks[3][1][1][5] *= 1.0 + 1e-6
    assert len(check_stream_blocks(expected, blocks)) == 1
