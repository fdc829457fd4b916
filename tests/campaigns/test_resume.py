"""The headline crash drill: SIGKILL a live campaign, resume, compare.

A campaign process (whole process group — workers included) is killed
mid-shard with ``SIGKILL``, the hardest failure the runner promises to
survive: no handlers run, no transactions finish, no cleanup happens.
Resuming from the store must complete the campaign and export **byte
for byte** what an uninterrupted run exports — the resumability
guarantee the whole subsystem exists for.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaigns import ArtifactStore, resume_campaign, run_campaign
from repro.campaigns.runner import THROTTLE_ENV

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Per-shard delay for the subprocess run: long enough that the kill
#: reliably lands mid-campaign, short enough to keep the test quick.
_THROTTLE_S = 0.25


def _campaign_env() -> dict:
    """Subprocess env: importable repro + throttled shards."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env[THROTTLE_ENV] = str(_THROTTLE_S)
    return env


def _counts(store_path: Path) -> dict:
    """Current per-status counts, polling-safe (read-only handle)."""
    with ArtifactStore.open(store_path, readonly=True) as store:
        return store.counts()


def _export(store_path: Path) -> str:
    with ArtifactStore.open(store_path) as store:
        return store.export_json()


def kill_campaign_mid_run(spec_file: Path, store_path: Path,
                          workers: int, min_done: int = 2,
                          timeout_s: float = 90.0,
                          group: bool = True) -> dict:
    """Start a campaign subprocess and SIGKILL its process group (or,
    with ``group=False``, the campaign process alone, orphaning its
    pool workers) once at least ``min_done`` shards are on disk.
    Returns the post-kill counts (asserting the campaign really was
    interrupted)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         str(spec_file), "--store", str(store_path),
         "--workers", str(workers)],
        env=_campaign_env(), cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if process.poll() is not None:
                pytest.fail("campaign finished before the kill landed; "
                            "raise the throttle")
            if store_path.exists():
                try:
                    if _counts(store_path)["done"] >= min_done:
                        break
                except ValueError:
                    pass  # store file mid-creation
            time.sleep(0.02)
        else:
            pytest.fail("campaign never reached the kill point")
    finally:
        # Kill the whole group: the runner parent AND its pool workers
        # die instantly, exactly like a machine crash.
        try:
            if group:
                os.killpg(process.pid, signal.SIGKILL)
            else:
                process.kill()
        except ProcessLookupError:
            pass  # already gone (only on the fail paths above)
        process.wait()
    # Give WAL a beat in case the OS is still flushing the dead
    # process's last committed frames, then read the wreckage.
    time.sleep(0.1)
    counts = _counts(store_path)
    assert counts["done"] >= min_done
    assert counts["done"] + counts["failed"] < sum(counts.values()), \
        "campaign completed despite the kill"
    return counts


class TestKillResume:
    def test_sigkilled_campaign_resumes_byte_identical(
            self, small_campaign, reference_export, tmp_path):
        """The PR's headline gate, single-worker subprocess."""
        spec_file = small_campaign.save(tmp_path / "fleet.json")
        store_path = tmp_path / "killed.sqlite"
        kill_campaign_mid_run(spec_file, store_path, workers=1)

        report = resume_campaign(store_path, workers=1)
        assert report.counts["done"] == small_campaign.n_shards
        assert report.counts["failed"] == 0
        assert 0 < report.n_executed <= small_campaign.n_shards
        assert _export(store_path) == reference_export

    def test_sigkilled_pool_campaign_resumes_byte_identical(
            self, small_campaign, reference_export, tmp_path):
        """Same drill with a worker pool: group kill takes down the
        parent and both workers mid-shard."""
        spec_file = small_campaign.save(tmp_path / "fleet.json")
        store_path = tmp_path / "killed-pool.sqlite"
        kill_campaign_mid_run(spec_file, store_path, workers=2)

        report = resume_campaign(store_path, workers=2)
        assert report.counts["done"] == small_campaign.n_shards
        assert _export(store_path) == reference_export


def _running(pid: int) -> bool:
    """Whether process ``pid`` still runs (a zombie does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


def _worker_pids(store_path: Path) -> "set[int]":
    """Pids of every process that ran a shard, from the telemetry."""
    with ArtifactStore.open(store_path, readonly=True) as store:
        return {int(event["worker"].removeprefix("pid:"))
                for event in store.telemetry_events()
                if event["event"] == "running"}


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_campaign_process_is_killed(
            self, small_campaign, reference_export, tmp_path):
        """``kill -9`` of the campaign process alone leaves its pool
        workers orphaned.  Each holds a store connection, so each must
        notice, close it and exit; then resume and export leave no WAL
        files and the export is byte-identical."""
        spec_file = small_campaign.save(tmp_path / "fleet.json")
        store_path = tmp_path / "orphaned.sqlite"
        kill_campaign_mid_run(spec_file, store_path, workers=2,
                              group=False)
        workers = _worker_pids(store_path)
        assert len(workers) == 2
        deadline = time.monotonic() + 10.0
        try:
            while any(map(_running, workers)):
                assert time.monotonic() < deadline, \
                    "orphaned pool workers did not exit"
                time.sleep(0.02)
        finally:
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)

        report = resume_campaign(store_path, workers=2)
        assert report.counts["done"] == small_campaign.n_shards
        assert _export(store_path) == reference_export
        assert not Path(f"{store_path}-wal").exists()
        assert not Path(f"{store_path}-shm").exists()


class TestResumeSemantics:
    def test_resume_skips_done_and_requeues_running(self, small_campaign,
                                                    reference_export,
                                                    tmp_path):
        """In-process model of a crash: some shards done, one left
        ``running`` (its worker died), the rest pending."""
        from repro.campaigns import execute_shard

        store_path = tmp_path / "partial.sqlite"
        ArtifactStore.create(store_path, small_campaign).close()
        for index in (0, 1, 2):
            execute_shard(store_path, index)
        with ArtifactStore.open(store_path) as store:
            store.mark_running(3)  # the shard the "crash" interrupted

        report = resume_campaign(store_path, workers=1)
        # Only the five unfinished shards ran; 0-2 were never re-run.
        assert report.n_executed == 5
        assert _export(store_path) == reference_export

    def test_resume_of_finished_store_is_a_no_op(self, small_campaign,
                                                 tmp_path):
        store_path = tmp_path / "done.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        before = _export(store_path)
        report = resume_campaign(store_path, workers=1)
        assert report.n_executed == 0
        assert report.counts["done"] == small_campaign.n_shards
        assert _export(store_path) == before
