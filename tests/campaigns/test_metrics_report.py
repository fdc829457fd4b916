"""Fleet-wide metrics and retry budgets in ``campaign report``.

The cross-process half of the metrics tentpole: every shard's
registry snapshot persists as a ``metrics`` telemetry event, the
report merges them into one fleet-wide histogram view (true
distribution, not an average of averages — including across real
worker processes), ``failed`` events carry the raising exception
class so retries group into per-error-class budgets, and
``campaign report --json`` emits the whole payload machine-readably.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.campaigns import ArtifactStore, run_campaign
from repro.campaigns.report import (
    merged_metrics,
    render_report,
    report_payload,
    retry_budgets,
)
from repro.scenarios.cli import main as cli_main
from repro.telemetry import (
    MetricsRegistry,
    TraceIdFilter,
    set_metrics_registry,
    set_recorder,
)

from tests.campaigns.test_retry import _flaky_spec, flaky_workload  # noqa: F401


@pytest.fixture()
def registry(monkeypatch):
    """An installed enabled registry + env flag for worker processes."""
    monkeypatch.setenv("REPRO_METRICS", "1")
    active = MetricsRegistry()
    previous = set_metrics_registry(active)
    yield active
    set_metrics_registry(previous)


class TestMeteredCampaign:
    def test_every_shard_persists_a_snapshot(self, registry,
                                             small_campaign, tmp_path):
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        with ArtifactStore.open(store_path) as store:
            events = [e for e in store.telemetry_events()
                      if e["event"] == "metrics"]
        assert len(events) == small_campaign.n_shards
        for event in events:
            payload = event["payload"]
            assert payload["trace_id"]
            snapshot = payload["snapshot"]
            assert snapshot["metrics_schema_version"] == 1
            execute = snapshot["instruments"][
                "repro_core_execute_seconds"]
            assert execute["series"][0]["count"] == 1

    def test_report_merges_across_worker_processes(self, registry,
                                                   small_campaign,
                                                   tmp_path):
        """The acceptance gate: a multi-process run still reports one
        fleet-wide histogram with every shard's observation in it."""
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=2)
        with ArtifactStore.open(store_path) as store:
            merged = merged_metrics(store.telemetry_events())
            text = render_report(store)
        execute = merged["instruments"]["repro_core_execute_seconds"]
        (row,) = execute["series"]
        assert row["count"] == small_campaign.n_shards
        assert "fleet-wide latency histograms" in text
        assert "repro_core_execute_seconds" in text

    def test_telemetry_env_alone_records_core_and_workload_metrics(
            self, monkeypatch, small_campaign, tmp_path):
        """REPRO_TELEMETRY=1 implies metrics: the numbers that used to
        be recorder counters land in the merged fleet snapshot."""
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        previous = set_recorder(None)
        previous_registry = set_metrics_registry(None)
        try:
            run_campaign(small_campaign, tmp_path / "t.sqlite", workers=1)
        finally:
            set_recorder(previous)
            set_metrics_registry(previous_registry)
        with ArtifactStore.open(tmp_path / "t.sqlite") as store:
            merged = merged_metrics(store.telemetry_events())
        instruments = merged["instruments"]
        (chunks,) = instruments["repro_core_chunks_total"]["series"]
        assert chunks["value"] >= small_campaign.n_shards
        events = {row["labels"]["event"]: row["value"] for row in
                  instruments["repro_core_workload_events_total"]["series"]
                  if row["labels"]["workload"] == "monitor"}
        assert {"recalibrations", "readings"} <= set(events)
        assert events["readings"] == \
            instruments["repro_core_samples_total"]["series"][0]["value"]

    def test_unmetered_report_points_at_the_flag(self, small_campaign,
                                                 tmp_path):
        store_path = tmp_path / "bare.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        with ArtifactStore.open(store_path) as store:
            assert merged_metrics(store.telemetry_events()) is None
            assert "REPRO_METRICS=1" in render_report(store)

    def test_lifecycle_events_carry_trace_ids(self, registry,
                                              small_campaign, tmp_path):
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        with ArtifactStore.open(store_path) as store:
            events = store.telemetry_events()
        by_shard: dict = {}
        for event in events:
            if event["event"] in ("running", "done") \
                    and event["payload"]:
                by_shard.setdefault(event["shard_index"], set()).add(
                    event["payload"]["trace_id"])
        assert len(by_shard) == small_campaign.n_shards
        # one trace id per shard, shared by running and done
        assert all(len(ids) == 1 for ids in by_shard.values())

    def test_shard_log_lines_carry_the_shard_trace_id(self, small_campaign,
                                                      tmp_path, caplog):
        """Each shard's running/done lines carry its lifecycle trace id
        through :class:`TraceIdFilter` on a handler."""
        store_path = tmp_path / "fleet.sqlite"
        runner_log = logging.getLogger("repro.campaigns.runner")
        trace_filter = TraceIdFilter()
        caplog.handler.addFilter(trace_filter)
        runner_log.addHandler(caplog.handler)
        try:
            with caplog.at_level(logging.INFO,
                                 logger="repro.campaigns.runner"):
                run_campaign(small_campaign, store_path, workers=1)
        finally:
            runner_log.removeHandler(caplog.handler)
            caplog.handler.removeFilter(trace_filter)
        with ArtifactStore.open(store_path) as store:
            expected = {event["shard_index"]: {event["payload"]["trace_id"]}
                        for event in store.telemetry_events()
                        if event["event"] == "running"}
        logged: dict = {}
        for record in caplog.records:
            words = record.getMessage().split()
            if words[0] == "shard":
                logged.setdefault(int(words[1]), set()).add(record.trace_id)
        assert logged == expected


class TestRetryBudgets:
    def test_budgets_group_by_error_class(self, flaky_workload,  # noqa: F811
                                          tmp_path):
        spec = _flaky_spec("budget", tmp_path, fail_attempts=1,
                           max_retries=2)
        run_campaign(spec, tmp_path / "c.sqlite", workers=1)
        with ArtifactStore.open(tmp_path / "c.sqlite") as store:
            budgets = retry_budgets(store.telemetry_events(),
                                    store.spec.max_retries)
            text = render_report(store)
        (error_class,) = budgets
        assert error_class == "RuntimeError"
        row = budgets[error_class]
        assert row["failures"] == 4
        assert row["shards"] == 4
        assert row["retries_used"] == 4
        assert row["max_retries_used"] == 1
        assert row["max_retries"] == 2
        assert row["recovered_shards"] == 4
        assert "retry budgets (max_retries=2):" in text
        assert "RuntimeError" in text

    def test_exhausted_budget_shows_unrecovered(self, flaky_workload,  # noqa: F811
                                                tmp_path):
        spec = _flaky_spec("exhaust", tmp_path, fail_attempts=5,
                           max_retries=1, n_shards=2)
        run_campaign(spec, tmp_path / "c.sqlite", workers=1)
        with ArtifactStore.open(tmp_path / "c.sqlite") as store:
            budgets = retry_budgets(store.telemetry_events(),
                                    store.spec.max_retries)
        row = budgets["RuntimeError"]
        assert row["failures"] == 4  # 2 shards x (initial + 1 retry)
        assert row["recovered_shards"] == 0


class TestReportJson:
    def test_cli_json_payload(self, registry, small_campaign,
                              tmp_path, capsys):
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        rc = cli_main(["campaign", "report", str(store_path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"] == small_campaign.name
        assert payload["n_shards"] == small_campaign.n_shards
        assert payload["counts"]["done"] == small_campaign.n_shards
        assert payload["retry_budgets"] == {}
        execute = payload["metrics"]["instruments"][
            "repro_core_execute_seconds"]
        assert execute["series"][0]["count"] == small_campaign.n_shards
        (histogram_row,) = [
            row for row in payload["metric_histograms"]
            if row["name"] == "repro_core_execute_seconds"]
        assert histogram_row["count"] == small_campaign.n_shards

    def test_payload_matches_render(self, small_campaign, tmp_path):
        store_path = tmp_path / "fleet.sqlite"
        run_campaign(small_campaign, store_path, workers=1)
        with ArtifactStore.open(store_path) as store:
            payload = report_payload(store)
        assert payload["metrics"] is None
        assert payload["metric_histograms"] == []
        json.dumps(payload)  # the whole payload is JSON-clean