"""The ``python -m repro telemetry`` surface, driven in-process.

``summary`` renders a metrics snapshot from either source — a JSON
snapshot file or a campaign SQLite store whose shards recorded metrics
— and the usage-error paths (missing file, store without metrics,
malformed JSON) exit 2 with a message instead of a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.campaigns import CampaignSpec, run_campaign
from repro.scenarios import Scenario
from repro.scenarios.cli import main
from repro.telemetry import (
    MetricsRegistry,
    parse_prometheus,
    set_metrics_registry,
)


@pytest.fixture(scope="module")
def small_campaign() -> CampaignSpec:
    """A four-shard, ~3 ms-per-shard monitor campaign."""
    base = Scenario(
        workload="monitor", name="wear",
        spec={"cohort": {"sensor": "glucose/this-work",
                         "analyte": "glucose", "n_patients": 2},
              "duration_h": 6.0, "sample_period_s": 300.0,
              "keep_traces": False})
    return CampaignSpec(name="fleet", base=base, n_shards=4, seed=2012)


@pytest.fixture()
def snapshot_file(tmp_path):
    """A saved registry snapshot with one counter and one histogram."""
    registry = MetricsRegistry()
    registry.counter("repro_jobs_total", "jobs",
                     ["outcome"]).labels(outcome="done").inc(4)
    hist = registry.histogram("repro_latency_seconds", "latency",
                              buckets=[0.1, 1.0])
    hist.labels().observe(0.05)
    hist.labels().observe(0.5)
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(registry.snapshot()))
    return path


@pytest.fixture()
def metered_store(small_campaign, tmp_path):
    """The small campaign run with a live registry installed, so its
    store carries one metrics snapshot per shard."""
    store_path = tmp_path / "fleet.sqlite"
    registry = MetricsRegistry()
    previous = set_metrics_registry(registry)
    try:
        run_campaign(small_campaign, store_path, workers=1)
    finally:
        set_metrics_registry(previous)
    return store_path


class TestSummaryFromSnapshot:
    def test_renders_table(self, snapshot_file, capsys):
        assert main(["telemetry", "summary", str(snapshot_file)]) == 0
        out = capsys.readouterr().out
        assert "repro_jobs_total" in out
        assert "repro_latency_seconds" in out

    def test_json_round_trips(self, snapshot_file, capsys):
        assert main(["telemetry", "summary", str(snapshot_file),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics_schema_version"] == 1
        jobs = payload["instruments"]["repro_jobs_total"]
        assert jobs["series"][0]["value"] == 4

    def test_prometheus_validates(self, snapshot_file, capsys):
        assert main(["telemetry", "summary", str(snapshot_file),
                     "--prometheus"]) == 0
        samples = parse_prometheus(capsys.readouterr().out)
        names = {sample["name"] for sample in samples}
        assert "repro_jobs_total" in names
        assert "repro_latency_seconds_bucket" in names


class TestSummaryFromStore:
    def test_merges_shard_snapshots(self, metered_store, small_campaign,
                                    capsys):
        assert main(["telemetry", "summary", str(metered_store),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        execute = payload["instruments"]["repro_core_execute_seconds"]
        (row,) = execute["series"]
        assert row["labels"] == {"workload": "monitor"}
        # one execute() observation per shard, summed fleet-wide
        assert row["count"] == small_campaign.n_shards

    def test_store_without_metrics_exits_2(self, small_campaign,
                                           tmp_path, capsys):
        store_path = tmp_path / "bare.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        rc = main(["telemetry", "summary", str(store_path)])
        assert rc == 2
        assert "REPRO_METRICS" in capsys.readouterr().out


class TestUsageErrors:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["telemetry", "summary", str(tmp_path / "nope")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().out

    def test_non_snapshot_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"not": "a snapshot"}')
        assert main(["telemetry", "summary", str(path)]) == 2

    def test_binary_garbage_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\x00\x01\x02 not sqlite, not json")
        assert main(["telemetry", "summary", str(path)]) == 2
