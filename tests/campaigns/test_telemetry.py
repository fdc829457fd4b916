"""Campaign telemetry: lifecycle events, report, trace, versioning.

The store's ``telemetry`` table is the wall-clock side of the
campaign layer — worker ids, durations, span summaries — and these
tests pin its four contracts: the runner records the full
``queued -> running -> done/failed`` lifecycle (plus ``spans`` when
instrumented), the deterministic export never changes whether or not
telemetry was on, readers refuse a mismatched telemetry schema while
shard data stays readable, and ``python -m repro campaign report`` on
the checked-in example fleet renders percentiles and a
Perfetto-loadable trace end to end.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.campaigns import (
    ArtifactStore,
    duration_stats,
    perfetto_trace,
    render_report,
    run_campaign,
    shard_timings,
    span_breakdown,
    worker_utilization,
)
from repro.campaigns.report import ShardTiming
from repro.scenarios import Scenario
from repro.scenarios.cli import main as cli_main
from repro.telemetry import InMemoryRecorder, set_recorder

EXAMPLE_FLEET = Path(__file__).resolve().parents[2] \
    / "examples" / "campaigns" / "glucose_fleet.json"


@pytest.fixture()
def recorder():
    """An installed (enabled) recorder, uninstalled on teardown."""
    active = InMemoryRecorder()
    previous = set_recorder(active)
    yield active
    set_recorder(previous)


class TestLifecycleEvents:
    def test_run_records_full_lifecycle_per_shard(self, small_campaign,
                                                  tmp_path):
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        with ArtifactStore.open(store_path) as store:
            events = store.telemetry_events()
        by_kind = {}
        for event in events:
            by_kind.setdefault(event["event"], []).append(event)
        n = small_campaign.n_shards
        assert len(by_kind["queued"]) == n
        assert len(by_kind["running"]) == n
        assert len(by_kind["done"]) == n
        assert "failed" not in by_kind
        for event in by_kind["done"]:
            assert event["worker"].startswith("pid:")
            assert event["duration_s"] > 0.0
        # Without telemetry enabled in the workers, no span payloads.
        assert "spans" not in by_kind

    def test_instrumented_run_records_span_payloads(
            self, small_campaign, tmp_path, recorder):
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        with ArtifactStore.open(store_path) as store:
            events = store.telemetry_events()
        spans = [e for e in events if e["event"] == "spans"]
        assert len(spans) == small_campaign.n_shards
        assert set(spans[0]["payload"]) == {"summary"}
        summary = spans[0]["payload"]["summary"]
        assert "core.run_chunk" in summary
        assert {"count", "total_s", "p50_s", "p95_s"} <= \
            set(summary["core.run_chunk"])
        # The shard recorders replayed into the process recorder too.
        assert any(r.name == "core.execute" for r in recorder.spans)

    def test_failed_shard_records_failed_event(self, tmp_path):
        from repro.campaigns import CampaignSpec

        bad = CampaignSpec(
            name="bad", n_shards=2, seed=1,
            base=Scenario(workload="monitor", name="broken",
                          spec={"cohort": {"sensor": "glucose/this-work",
                                           "analyte": "glucose",
                                           "n_patients": 0},
                                "duration_h": 1.0}))
        store_path = tmp_path / "bad.sqlite"
        run_campaign(bad, store_path, workers=1)
        with ArtifactStore.open(store_path) as store:
            events = store.telemetry_events()
        failed = [e for e in events if e["event"] == "failed"]
        assert len(failed) == 2
        assert all(e["duration_s"] is not None for e in failed)

    def test_resume_requeues_with_queued_events(self, small_campaign,
                                                tmp_path):
        store_path = tmp_path / "fleet.sqlite"
        ArtifactStore.create(store_path, small_campaign).close()
        with ArtifactStore.open(store_path) as store:
            store.mark_running(0)
            store.mark_running(1)
            assert store.reset_running() == 2
            events = store.telemetry_events()
        queued = [e for e in events if e["event"] == "queued"]
        # One per shard at create + one per requeued shard.
        assert len(queued) == small_campaign.n_shards + 2

    def test_unknown_event_kind_rejected(self, small_campaign,
                                         tmp_path):
        store_path = tmp_path / "fleet.sqlite"
        ArtifactStore.create(store_path, small_campaign).close()
        with ArtifactStore.open(store_path) as store:
            with pytest.raises(ValueError, match="unknown telemetry"):
                store.record_event("exploded", 0)


class TestDeterministicExport:
    def test_export_identical_with_and_without_telemetry(
            self, small_campaign, tmp_path, reference_export, recorder):
        """Telemetry rows are wall-clock data and must never leak into
        the deterministic export: an instrumented run exports byte-
        identically to the uninstrumented reference."""
        store_path = tmp_path / "instrumented.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        with ArtifactStore.open(store_path) as store:
            assert store.export_json() == reference_export


class TestTelemetrySchemaVersioning:
    def test_mismatch_refuses_telemetry_but_not_shards(
            self, small_campaign, tmp_path):
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        conn = sqlite3.connect(store_path)
        with conn:
            conn.execute(
                "UPDATE meta SET value = '999' "
                "WHERE key = 'telemetry_schema_version'")
        conn.close()
        with ArtifactStore.open(store_path) as store:
            with pytest.raises(ValueError,
                               match="telemetry schema version 999"):
                store.telemetry_events()
            # Shard data is unaffected by a telemetry-only mismatch.
            assert store.counts()["done"] == small_campaign.n_shards
            assert "shards" in json.loads(store.export_json())

    def test_report_cli_reports_mismatch_as_usage_error(
            self, small_campaign, tmp_path, capsys):
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        conn = sqlite3.connect(store_path)
        with conn:
            conn.execute(
                "UPDATE meta SET value = '999' "
                "WHERE key = 'telemetry_schema_version'")
        conn.close()
        assert cli_main(["campaign", "report", str(store_path)]) == 2
        assert "telemetry schema version" in capsys.readouterr().out


class TestStatusThroughputAndEta:
    def test_partial_campaign_shows_throughput_and_eta(
            self, small_campaign, tmp_path):
        from repro.campaigns import execute_shard

        store_path = tmp_path / "fleet.sqlite"
        ArtifactStore.create(store_path, small_campaign).close()
        for index in range(3):
            execute_shard(store_path, index)
        with ArtifactStore.open(store_path) as store:
            summary = store.status_summary()
            rate = store.completion_rate_per_s()
        assert rate is not None and rate > 0.0
        assert "throughput:" in summary and "shards/min" in summary
        assert "eta:" in summary and "5 shards remaining" in summary

    def test_rate_spans_from_first_running_event(self, small_campaign,
                                                 tmp_path):
        """Two shards that start at t = 100 s and finish 2 ms apart at
        t = 110 s ran at 2 shards per 10 s, not 1 per 2 ms."""
        store_path = tmp_path / "fleet.sqlite"
        ArtifactStore.create(store_path, small_campaign).close()
        conn = sqlite3.connect(store_path)
        with conn:
            conn.executemany(
                "INSERT INTO telemetry (shard_index, event, wall_s) "
                "VALUES (?, ?, ?)",
                [(0, "running", 100.0), (1, "running", 100.0),
                 (0, "done", 110.0), (1, "done", 110.002)])
        conn.close()
        with ArtifactStore.open(store_path) as store:
            rate = store.completion_rate_per_s()
            summary = store.status_summary()
        assert rate == pytest.approx(2 / 10.002)
        assert "throughput: 12.0 shards/min" in summary
        assert "eta: 40 s (8 shards remaining)" in summary

    def test_fresh_store_has_no_rate(self, small_campaign, tmp_path):
        store_path = tmp_path / "fleet.sqlite"
        ArtifactStore.create(store_path, small_campaign).close()
        with ArtifactStore.open(store_path) as store:
            assert store.completion_rate_per_s() is None
            assert "throughput: n/a" in store.status_summary()

    def test_finished_campaign_shows_no_eta(self, small_campaign,
                                            tmp_path):
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        with ArtifactStore.open(store_path) as store:
            summary = store.status_summary()
        assert "eta:" not in summary


class TestReportPieces:
    def make_events(self):
        """Two workers, three shards, one span payload."""
        return [
            {"shard_index": 0, "event": "queued", "worker": None,
             "wall_s": 0.0, "duration_s": None, "payload": None},
            {"shard_index": 0, "event": "done", "worker": "pid:1",
             "wall_s": 10.0, "duration_s": 2.0, "payload": None},
            {"shard_index": 1, "event": "done", "worker": "pid:2",
             "wall_s": 11.0, "duration_s": 3.0, "payload": None},
            {"shard_index": 2, "event": "failed", "worker": "pid:1",
             "wall_s": 12.0, "duration_s": 1.0, "payload": None},
            {"shard_index": 0, "event": "spans", "worker": "pid:1",
             "wall_s": 10.0, "duration_s": None,
             "payload": {"summary": {"core.run_chunk": {
                 "count": 4, "total_s": 1.5, "p50_s": 0.3,
                 "p95_s": 0.6}}}},
        ]

    def test_shard_timings_from_terminal_events(self):
        timings = shard_timings(self.make_events())
        assert [t.shard_index for t in timings] == [0, 1, 2]
        assert timings[0].started_wall_s == pytest.approx(8.0)
        assert timings[2].status == "failed"

    def test_duration_stats(self):
        stats = duration_stats(shard_timings(self.make_events()))
        assert stats["count"] == 3
        assert stats["p50_s"] == pytest.approx(2.0)
        assert stats["min_s"] == 1.0 and stats["max_s"] == 3.0
        assert duration_stats([]) is None

    def test_worker_utilization(self):
        table = worker_utilization(shard_timings(self.make_events()))
        assert set(table) == {"pid:1", "pid:2"}
        assert table["pid:1"]["shards"] == 2
        assert table["pid:1"]["busy_s"] == pytest.approx(3.0)
        # Span runs from the first start (8.0) to the last end (12.0).
        assert table["pid:2"]["utilization"] == pytest.approx(3.0 / 4.0)

    def test_span_breakdown_merges_counts_and_totals(self):
        events = self.make_events()
        events.append({
            "shard_index": 1, "event": "spans", "worker": "pid:2",
            "wall_s": 11.0, "duration_s": None,
            "payload": {"summary": {"core.run_chunk": {
                "count": 6, "total_s": 2.5, "p50_s": 0.4,
                "p95_s": 0.9}}}})
        table = span_breakdown(events)
        row = table["core.run_chunk"]
        assert row["count"] == 10
        assert row["total_s"] == pytest.approx(4.0)
        assert row["mean_s"] == pytest.approx(0.4)
        assert row["max_p95_s"] == pytest.approx(0.9)

    def test_synthetic_timing_dataclass_roundtrip(self):
        timing = ShardTiming(shard_index=1, worker="pid:9",
                             started_wall_s=1.0, duration_s=0.5,
                             status="done")
        assert timing.started_wall_s + timing.duration_s == 1.5


class TestEndToEndReport:
    def test_example_fleet_report_and_perfetto_trace(
            self, tmp_path, capsys, recorder):
        """The acceptance gate: an instrumented run of the checked-in
        glucose fleet must yield a report with p50/p95 shard durations
        and a Perfetto-loadable trace file."""
        store_path = tmp_path / "fleet.sqlite"
        trace_path = tmp_path / "fleet_trace.json"
        assert cli_main(["campaign", "run", str(EXAMPLE_FLEET),
                         "--store", str(store_path)]) == 0
        assert cli_main(["campaign", "report", str(store_path),
                         "--perfetto-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out
        assert "shard durations (8 finished)" in out
        assert "workers (1):" in out
        assert "slowest spans" in out
        assert "core.run_chunk" in out
        trace = json.loads(trace_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        complete = [e for e in trace["traceEvents"]
                    if e["ph"] == "X"]
        assert len(complete) == 8
        assert all(e["dur"] > 0 for e in complete)
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metadata)

    def test_report_on_unfinished_store_degrades(self, small_campaign,
                                                 tmp_path, capsys):
        store_path = tmp_path / "fleet.sqlite"
        ArtifactStore.create(store_path, small_campaign).close()
        assert cli_main(["campaign", "report", str(store_path)]) == 0
        assert "no finished shards yet" in capsys.readouterr().out

    def test_multiworker_run_records_events_across_processes(
            self, small_campaign, tmp_path):
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=2)
        with ArtifactStore.open(store_path) as store:
            events = store.telemetry_events()
            trace = perfetto_trace(store)
            report = render_report(store)
        done = [e for e in events if e["event"] == "done"]
        assert len(done) == small_campaign.n_shards
        assert len([e for e in trace["traceEvents"]
                    if e["ph"] == "X"]) == small_campaign.n_shards
        assert "workers (" in report
