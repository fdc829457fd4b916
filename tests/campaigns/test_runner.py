"""Campaign runner: every workload shards; workers never change results.

``run_campaign`` must produce the identical store content whether
shards run in-process or across a worker pool, for every registered
workload — the per-shard seeds are position-stable and each shard's
scenario is fully resolved, so parallelism is pure mechanism.  Each
worker process (or the in-process batch) writes through one store
connection, so a campaign opens the store a number of times that does
not grow with its shard count, and leaves no WAL files behind.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.campaigns import (
    ArtifactStore,
    CampaignSpec,
    execute_shard,
    run_campaign,
)
from repro.scenarios import Scenario, run_scenario

#: One tiny-but-real base scenario per registered workload.
WORKLOAD_BASES = {
    "calibration": Scenario(
        workload="calibration", name="calib",
        spec={"sensors": ["glucose/this-work"],
              "n_blanks": 2, "n_replicates": 2}),
    "monitor": Scenario(
        workload="monitor", name="wear",
        spec={"cohort": {"sensor": "glucose/this-work",
                         "analyte": "glucose", "n_patients": 2},
              "duration_h": 6.0, "sample_period_s": 300.0,
              "keep_traces": False}),
    "therapy": Scenario(
        workload="therapy", name="course",
        spec={"drug": "cyclosporine", "n_patients": 2, "cohort_seed": 7,
              "controller": {"kind": "fixed", "dose_mg": 200.0},
              "n_doses": 2, "sample_period_s": 1800.0,
              "keep_traces": False}),
    "estimation": Scenario(
        workload="estimation", name="reconstruct",
        spec={"cohort": {"sensor": "glucose/this-work",
                         "analyte": "glucose", "n_patients": 2},
              "duration_h": 6.0, "sample_period_s": 600.0}),
}


class TestEveryWorkloadShards:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_BASES))
    def test_campaign_rows_match_direct_scenario_runs(self, workload,
                                                      tmp_path):
        """Stored rows equal run_scenario(...)'s own summary_row."""
        spec = CampaignSpec(name=f"{workload}-fleet",
                            base=WORKLOAD_BASES[workload],
                            n_shards=3, seed=99)
        report = run_campaign(spec, tmp_path / "c.sqlite", workers=1)
        assert report.counts == {"pending": 0, "running": 0,
                                 "done": 3, "failed": 0}
        assert report.n_executed == 3
        with ArtifactStore.open(tmp_path / "c.sqlite") as store:
            rows = store.export_rows()
        for index, row in enumerate(rows):
            shard = spec.shard(index)
            assert row["scenario"] == shard.to_dict()
            assert row["result"] == run_scenario(shard).summary_row()


class TestWorkerInvariance:
    def test_two_workers_export_identically(self, small_campaign,
                                            reference_export,
                                            tmp_path):
        run_campaign(small_campaign, tmp_path / "mw.sqlite", workers=2)
        with ArtifactStore.open(tmp_path / "mw.sqlite") as store:
            assert store.export_json() == reference_export

    def test_bad_worker_count_rejected(self, small_campaign, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            run_campaign(small_campaign, tmp_path / "c.sqlite",
                         workers=0)


class TestFailureIsolation:
    def test_bad_shard_is_recorded_not_raised(self, tmp_path):
        """A shard whose plan cannot build fails as data, not a crash."""
        base = Scenario(
            workload="monitor", name="broken",
            spec={"cohort": {"sensor": "no-such/sensor",
                             "analyte": "glucose", "n_patients": 2},
                  "duration_h": 6.0})
        spec = CampaignSpec(name="doomed", base=base, n_shards=2, seed=1)
        report = run_campaign(spec, tmp_path / "d.sqlite", workers=1)
        assert report.counts["failed"] == 2
        assert report.counts["done"] == 0
        with ArtifactStore.open(tmp_path / "d.sqlite") as store:
            rows = store.export_rows()
        assert all(row["status"] == "failed" for row in rows)
        assert all("no-such/sensor" in row["error"] for row in rows)

    def test_execute_shard_reports_final_status(self, small_campaign,
                                                tmp_path):
        path = tmp_path / "one.sqlite"
        ArtifactStore.create(path, small_campaign).close()
        assert execute_shard(path, 5) == (5, "done")
        with ArtifactStore.open(path) as store:
            assert store.counts()["done"] == 1
            assert store.pending_indices() == (0, 1, 2, 3, 4, 6, 7)


@pytest.fixture()
def store_log(monkeypatch, tmp_path):
    """Log every ``ArtifactStore.open`` and ``close`` of this process
    and of the pool workers it forks, one line each in a shared file:
    ``open <pid> <stores this process held open before>`` or
    ``close <pid> 0``.  Returns a reader of the ``(event, pid, held)``
    records logged since the last read."""
    log = tmp_path / "store-calls.log"
    log.touch()
    held: set = set()
    real_open, real_close = ArtifactStore.open.__func__, ArtifactStore.close

    def write(line: str) -> None:
        with open(log, "a") as handle:
            handle.write(line + "\n")

    def logged_open(cls, *args, **kwargs):
        write(f"open {os.getpid()} {len(held)}")
        store = real_open(cls, *args, **kwargs)
        held.add(id(store))
        return store

    def logged_close(self):
        if id(self) in held:
            held.discard(id(self))
            write(f"close {os.getpid()} 0")
        real_close(self)

    monkeypatch.setattr(ArtifactStore, "open", classmethod(logged_open))
    monkeypatch.setattr(ArtifactStore, "close", logged_close)

    def read() -> "list[tuple[str, int, int]]":
        lines = log.read_text().split()
        log.write_text("")
        return [(event, int(pid), int(count)) for event, pid, count
                in zip(lines[::3], lines[1::3], lines[2::3])]

    return read


def _wal_files(path: Path) -> "list[Path]":
    return [candidate for candidate in (Path(f"{path}-wal"),
                                        Path(f"{path}-shm"))
            if candidate.exists()]


class TestConnectionLifetime:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_opens_do_not_grow_with_shards(self, monitor_base,
                                                 store_log, tmp_path,
                                                 workers):
        """A campaign opens the store once per worker plus a constant,
        not once or twice per shard."""
        opens = {}
        for n_shards in (4, 16):
            spec = CampaignSpec(name="lifetime", base=monitor_base,
                                n_shards=n_shards, seed=5)
            path = tmp_path / f"{n_shards}.sqlite"
            report = run_campaign(spec, path, workers=workers)
            assert report.counts["done"] == n_shards
            records = store_log()
            worker_pids = {pid for __, pid, __ in records
                           if pid != os.getpid()}
            assert len(worker_pids) == (workers if workers > 1 else 0)
            opens[n_shards] = sum(event == "open"
                                  for event, __, __ in records)
        assert opens[4] == opens[16]
        assert opens[16] <= workers + 4

    def test_pool_workers_fork_clean_and_close_on_exit(
            self, small_campaign, store_log, tmp_path):
        """No store is open in the parent when the pool forks, each
        worker opens one connection, and closes it before the campaign
        returns."""
        run_campaign(small_campaign, tmp_path / "pool.sqlite", workers=2)
        records = store_log()
        workers = {pid for __, pid, __ in records if pid != os.getpid()}
        assert len(workers) == 2
        for pid in workers:
            mine = [(event, held) for event, who, held in records
                    if who == pid]
            assert mine == [("open", 0), ("close", 0)], mine

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_wal_files_remain_next_to_a_finished_store(
            self, small_campaign, reference_export, tmp_path, workers):
        path = tmp_path / "finished.sqlite"
        run_campaign(small_campaign, path, workers=workers)
        assert _wal_files(path) == []
        with ArtifactStore.open(path) as store:
            assert store.export_json() == reference_export
        assert _wal_files(path) == []

    def test_a_direct_call_closes_its_own_connection(self, small_campaign,
                                                     store_log, tmp_path):
        path = tmp_path / "direct.sqlite"
        ArtifactStore.create(path, small_campaign).close()
        store_log()
        execute_shard(path, 2)
        assert [event for event, __, __ in store_log()] \
            == ["open", "close"]
        assert _wal_files(path) == []
