"""ArtifactStore: schema versioning, WAL concurrency, export fidelity.

The store is the campaign's single source of truth, so these tests pin
its three survival properties: it refuses stores written by a
different schema with a clear error; two processes writing rows
concurrently never corrupt it (WAL); and its export carries exactly
the rows the scenario CLI would emit for the same shard.
"""

from __future__ import annotations

import json
import sqlite3
from multiprocessing import get_context

import pytest

from repro.campaigns import (
    ArtifactStore,
    CampaignSpec,
    STORE_SCHEMA_VERSION,
    run_campaign,
)
from repro.scenarios import Scenario
from repro.scenarios.cli import main as scenario_cli_main


@pytest.fixture()
def store_path(small_campaign, tmp_path):
    """A freshly created (all-pending) store for the small campaign."""
    path = tmp_path / "fleet.sqlite"
    ArtifactStore.create(path, small_campaign).close()
    return path


class TestLifecycle:
    def test_create_expands_manifest_and_shards(self, small_campaign,
                                                store_path):
        with ArtifactStore.open(store_path) as store:
            assert store.spec == small_campaign
            assert store.spec_hash == small_campaign.spec_hash()
            assert store.workload == "monitor"
            assert store.n_shards() == small_campaign.n_shards
            assert store.counts() == {"pending": small_campaign.n_shards,
                                      "running": 0, "done": 0,
                                      "failed": 0}
            assert store.pending_indices() == tuple(
                range(small_campaign.n_shards))
            # Shard rows are the resolved scenarios, seeds included.
            assert store.shard_scenario(3) == small_campaign.shard(3)

    def test_create_refuses_existing_path(self, small_campaign,
                                          store_path):
        with pytest.raises(FileExistsError, match="resume"):
            ArtifactStore.create(store_path, small_campaign)

    def test_open_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ArtifactStore.open(tmp_path / "nope.sqlite")

    def test_open_non_store_file(self, tmp_path):
        bogus = tmp_path / "bogus.sqlite"
        bogus.write_text("this is not a database")
        with pytest.raises(ValueError, match="not a campaign store"):
            ArtifactStore.open(bogus)

    def test_wal_mode_is_active(self, store_path):
        with ArtifactStore.open(store_path) as store:
            mode = store._conn.execute(
                "PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"


class TestSchemaVersioning:
    def test_version_mismatch_raises_clear_error(self, store_path):
        conn = sqlite3.connect(store_path)
        with conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = ?",
                (str(STORE_SCHEMA_VERSION + 1), "store_schema_version"))
        conn.close()
        with pytest.raises(ValueError) as excinfo:
            ArtifactStore.open(store_path)
        message = str(excinfo.value)
        assert str(STORE_SCHEMA_VERSION + 1) in message
        assert f"reads version {STORE_SCHEMA_VERSION}" in message

    def test_missing_version_entry_raises(self, store_path):
        conn = sqlite3.connect(store_path)
        with conn:
            conn.execute("DELETE FROM meta WHERE key = ?",
                         ("store_schema_version",))
        conn.close()
        with pytest.raises(ValueError, match="store_schema_version"):
            ArtifactStore.open(store_path)


def _record_rows(store_path, indices):
    """Worker: mark + record a result row for each index (own handle)."""
    with ArtifactStore.open(store_path) as store:
        for index in indices:
            store.mark_running(index)
            store.record_result(
                index, {"workload": "monitor", "shard": index})


class TestConcurrentWriters:
    def test_two_processes_interleave_without_corruption(self,
                                                         store_path):
        """Disjoint halves written from two live processes at once."""
        n = 8
        context = get_context("fork")
        workers = [
            context.Process(target=_record_rows,
                            args=(store_path, list(range(half, n, 2))))
            for half in (0, 1)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        conn = sqlite3.connect(store_path)
        assert conn.execute(
            "PRAGMA integrity_check").fetchone()[0] == "ok"
        conn.close()
        with ArtifactStore.open(store_path) as store:
            assert store.counts()["done"] == n
            rows = store.export_rows()
        assert [row["result"]["shard"] for row in rows] == list(range(n))

    def test_readonly_reader_sees_live_writes(self, store_path):
        writer = ArtifactStore.open(store_path)
        reader = ArtifactStore.open(store_path, readonly=True)
        writer.mark_running(0)
        writer.record_result(0, {"workload": "monitor"})
        assert reader.counts()["done"] == 1
        with pytest.raises(sqlite3.OperationalError):
            reader.mark_running(1)  # read-only handles cannot write
        writer.close()
        reader.close()


class TestExport:
    def test_export_matches_scenario_cli_artifact(self, monitor_base,
                                                  tmp_path, capsys):
        """A stored shard row is the scenario CLI's own summary_row."""
        spec = CampaignSpec(name="pair", base=monitor_base,
                            n_shards=2, seed=7)
        store_path = tmp_path / "pair.sqlite"
        run_campaign(spec, store_path, workers=1)
        with ArtifactStore.open(store_path) as store:
            row = store.export_rows()[0]

        # Replay the same resolved shard through python -m repro run.
        scenario_file = tmp_path / "shard0.json"
        Scenario.from_dict(row["scenario"]).save(scenario_file)
        artifact_file = tmp_path / "shard0.out.json"
        rc = scenario_cli_main(["run", str(scenario_file),
                                "--out", str(artifact_file)])
        capsys.readouterr()
        assert rc == 0
        artifact = json.loads(artifact_file.read_text())
        assert artifact["scenario"] == row["scenario"]
        # to_dict() is summary_row() plus trace extras, so the stored
        # row must be an exact sub-mapping of the CLI result export.
        assert row["result"].items() <= artifact["result"].items()

    def test_export_excludes_wall_clock_fields(self, store_path):
        with ArtifactStore.open(store_path) as store:
            store.mark_running(0)
            store.record_result(0, {"workload": "monitor"})
            text = store.export_json()
        assert "elapsed" not in text
        payload = json.loads(text)
        assert set(payload) == {"store_schema_version", "spec_hash",
                                "campaign", "shards"}

    def test_failure_rows_round_trip(self, store_path):
        with ArtifactStore.open(store_path) as store:
            store.record_failure(2, "KeyError: 'no such sensor'")
            rows = store.export_rows()
            assert store.counts()["failed"] == 1
        assert rows[2]["status"] == "failed"
        assert rows[2]["error"] == "KeyError: 'no such sensor'"
        assert rows[2]["result"] is None
