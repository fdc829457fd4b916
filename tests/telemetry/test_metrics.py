"""The metrics layer: typed instruments, snapshots, exposition.

The contracts the tentpole hangs on: instruments validate and
aggregate correctly, the cardinality cap bounds series growth,
snapshots are an exact algebra (counters and buckets add, gauges keep
the max, exemplars keep the last), the Prometheus text exposition is
golden-format-stable and round-trips its own validator, and the
disabled path is one shared no-op object.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS_S,
    METRICS_ENV,
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    OVERFLOW_LABEL,
    exponential_buckets,
    get_metrics_registry,
    histogram_quantile,
    merge_snapshots,
    metrics_env_enabled,
    metrics_registry_from_env,
    parse_prometheus,
    set_metrics_registry,
    snapshot_histogram_rows,
    trace_context,
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "jobs", ["outcome"])
        counter.labels(outcome="done").inc()
        counter.labels(outcome="done").inc(2.5)
        series = counter.labels(outcome="done")
        assert series.value == 3.5
        with pytest.raises(ValueError):
            series.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth", "depth")
        gauge.set(4)
        series = gauge.labels()
        series.inc()
        series.dec(2)
        assert series.value == 3

    def test_histogram_buckets_sum_count_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", "latency",
                                  buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.labels().observe(value)
        series = hist.labels()
        assert series.count == 4
        assert series.sum == pytest.approx(6.05)
        # 0.05 -> le=0.1; 0.5, 0.5 -> le=1.0; 5.0 -> le=10.0
        assert list(series.bucket_counts) == [1, 2, 1, 0]
        bounds = [0.1, 1.0, 10.0]
        assert 0.1 <= histogram_quantile(
            bounds, series.bucket_counts, 0.5) <= 1.0
        assert histogram_quantile(bounds, series.bucket_counts, 1.0) <= 10.0

    def test_exponential_buckets_shape(self):
        buckets = exponential_buckets(1e-3, 2.0, 5)
        assert buckets == pytest.approx(
            (1e-3, 2e-3, 4e-3, 8e-3, 16e-3))
        assert len(DEFAULT_LATENCY_BUCKETS_S) == 16
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h1", buckets=[])
        with pytest.raises(ValueError):
            registry.histogram("h2", buckets=[1.0, 1.0])
        with pytest.raises(ValueError):
            registry.histogram("h3", buckets=[1.0, math.inf])

    def test_label_names_must_match_exactly(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", ["method"])
        with pytest.raises(ValueError):
            counter.labels()
        with pytest.raises(ValueError):
            counter.labels(method="GET", extra="x")
        counter.labels(method="GET").inc()


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", ["a"])
        again = registry.counter("x_total", "help", ["a"])
        assert first is again

    def test_signature_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "", ["a"])
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", "", ["b"])
        registry.histogram("h_seconds", buckets=[1.0, 2.0])
        with pytest.raises(ValueError):
            registry.histogram("h_seconds", buckets=[1.0, 3.0])

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("2bad")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "", ["__reserved"])
        with pytest.raises(ValueError):
            registry.counter("ok_total", "", ["a", "a"])

    def test_cardinality_cap_collapses_to_overflow(self):
        registry = MetricsRegistry(cardinality_cap=2)
        counter = registry.counter("c_total", "", ["user"])
        counter.labels(user="a").inc()
        counter.labels(user="b").inc()
        counter.labels(user="c").inc()  # beyond cap -> overflow
        counter.labels(user="d").inc()
        assert counter.overflowed == 2
        labels = [labels for labels, __ in counter.items()]
        assert {"user": OVERFLOW_LABEL} in labels
        overflow = counter.labels(user=OVERFLOW_LABEL)
        assert overflow.value == 2
        # existing series keep working after the cap is hit
        counter.labels(user="a").inc()
        assert counter.labels(user="a").value == 2


class TestSnapshotAlgebra:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs", ["outcome"]) \
            .labels(outcome="done").inc(3)
        registry.gauge("depth", "queue").set(5)
        hist = registry.histogram("lat_seconds", "lat",
                                  buckets=[0.1, 1.0])
        hist.labels().observe(0.05)
        hist.labels().observe(0.5)
        return registry

    def test_snapshot_is_json_clean(self):
        snapshot = self._populated().snapshot()
        assert snapshot["metrics_schema_version"] == 1
        json.loads(json.dumps(snapshot))  # round-trips as pure JSON

    def test_merge_doubles_counters_and_buckets(self):
        a = self._populated().snapshot()
        b = self._populated().snapshot()
        merged = merge_snapshots([a, b])
        jobs = merged["instruments"]["jobs_total"]["series"][0]
        assert jobs["value"] == 6
        lat = merged["instruments"]["lat_seconds"]["series"][0]
        assert lat["count"] == 4
        assert lat["bucket_counts"] == [2, 2, 0]  # le=0.1, le=1, +Inf
        assert lat["sum"] == pytest.approx(1.1)

    def test_merge_gauges_keep_max(self):
        a = self._populated()
        b = self._populated()
        b.gauge("depth").set(9)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["instruments"]["depth"]["series"][0]["value"] == 9

    def test_exemplar_records_active_trace(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=[1.0])
        hist.labels().observe(0.5)  # no trace active -> no exemplar
        with trace_context() as trace_id:
            hist.labels().observe(0.7)
        exemplar = hist.labels().exemplar
        assert exemplar == {"value": 0.7, "trace_id": trace_id}
        snapshot = registry.snapshot()
        row = snapshot["instruments"]["lat_seconds"]["series"][0]
        assert row["exemplar"]["trace_id"] == trace_id

    def test_merge_rejects_bad_schema(self):
        with pytest.raises(ValueError):
            merge_snapshots([{"instruments": {}}])
        with pytest.raises(ValueError):
            merge_snapshots([{"metrics_schema_version": 999,
                              "instruments": {}}])

    def test_histogram_rows_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds",
                                  buckets=[0.1, 1.0, 10.0])
        for __ in range(99):
            hist.labels().observe(0.05)
        hist.labels().observe(5.0)
        rows = snapshot_histogram_rows(registry.snapshot())
        (row,) = rows
        assert row["name"] == "lat_seconds"
        assert row["count"] == 100
        assert row["p50"] <= 0.1
        assert row["p95"] <= 0.1  # 99% of mass in the first bucket
        assert row["p99"] <= 10.0

    def test_histogram_quantile_interpolates(self):
        # counts are per bucket including +Inf: 10 in [0, 1], 10 in
        # (1, 2], none above
        value = histogram_quantile([1.0, 2.0], [10, 10, 0], 0.25)
        assert 0.0 < value <= 1.0
        value = histogram_quantile([1.0, 2.0], [10, 10, 0], 0.75)
        assert 1.0 < value <= 2.0
        with pytest.raises(ValueError):
            histogram_quantile([1.0, 2.0], [10, 10, 0], 1.5)
        with pytest.raises(ValueError):
            histogram_quantile([1.0, 2.0], [10, 10], 0.5)


class TestPrometheusExposition:
    def test_golden_format(self):
        """The exposition layout is frozen: HELP/TYPE comments,
        cumulative ``le`` buckets with ``+Inf``, ``_sum``/``_count``,
        sorted families — any drift breaks real scrapers."""
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "Jobs by outcome.",
                         ["outcome"]).labels(outcome="done").inc(3)
        registry.gauge("repro_queue_depth",
                       "Queued jobs.").set(2)
        hist = registry.histogram("repro_latency_seconds",
                                  "Request latency.",
                                  buckets=[0.1, 1.0])
        hist.labels().observe(0.05)
        hist.labels().observe(0.5)
        text = registry.render_prometheus()
        expected = (
            "# HELP repro_jobs_total Jobs by outcome.\n"
            "# TYPE repro_jobs_total counter\n"
            'repro_jobs_total{outcome="done"} 3\n'
            "# HELP repro_latency_seconds Request latency.\n"
            "# TYPE repro_latency_seconds histogram\n"
            'repro_latency_seconds_bucket{le="0.1"} 1\n'
            'repro_latency_seconds_bucket{le="1"} 2\n'
            'repro_latency_seconds_bucket{le="+Inf"} 2\n'
            "repro_latency_seconds_sum 0.55\n"
            "repro_latency_seconds_count 2\n"
            "# HELP repro_queue_depth Queued jobs.\n"
            "# TYPE repro_queue_depth gauge\n"
            "repro_queue_depth 2\n")
        assert text == expected

    def test_round_trips_validator(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "with \\ and \"quotes\"",
                         ["k"]).labels(k='v"\\\n').inc()
        registry.histogram("h_seconds", buckets=[0.5]).labels() \
            .observe(0.1)
        registry.gauge("g").set(-1.5)
        samples = parse_prometheus(registry.render_prometheus())
        names = {sample["name"] for sample in samples}
        assert {"a_total", "h_seconds_bucket", "h_seconds_sum",
                "h_seconds_count", "g"} <= names

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("no spaces here\n")
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE x wat\nx 1\n")
        # histogram without +Inf bucket
        bad = ("# TYPE h histogram\n"
               'h_bucket{le="1"} 1\n'
               "h_sum 0.5\nh_count 1\n")
        with pytest.raises(ValueError):
            parse_prometheus(bad)
        # non-cumulative buckets
        bad = ("# TYPE h histogram\n"
               'h_bucket{le="1"} 2\n'
               'h_bucket{le="+Inf"} 1\n'
               "h_sum 0.5\nh_count 1\n")
        with pytest.raises(ValueError):
            parse_prometheus(bad)


class TestFrontDoor:
    def test_env_flag(self, monkeypatch):
        monkeypatch.delenv(METRICS_ENV, raising=False)
        assert not metrics_env_enabled()
        monkeypatch.setenv(METRICS_ENV, "1")
        assert metrics_env_enabled()
        monkeypatch.setenv(METRICS_ENV, "0")
        assert not metrics_env_enabled()
        assert isinstance(metrics_registry_from_env({}),
                          NullMetricsRegistry)
        assert metrics_registry_from_env(
            {METRICS_ENV: "1"}).enabled
        # spans always bring metrics with them
        assert metrics_registry_from_env({"REPRO_TELEMETRY": "1"}).enabled

    def test_set_and_get_registry(self):
        registry = MetricsRegistry()
        previous = set_metrics_registry(registry)
        try:
            assert get_metrics_registry() is registry
        finally:
            set_metrics_registry(previous)
        assert get_metrics_registry() is not registry

    def test_null_registry_is_shared_noop(self):
        assert not NULL_METRICS.enabled
        counter = NULL_METRICS.counter("anything")
        gauge = NULL_METRICS.gauge("anything")
        hist = NULL_METRICS.histogram("anything")
        assert counter is gauge is hist
        counter.inc()
        gauge.set(5)
        hist.observe(1.0)
        assert counter.labels(any="label") is counter
        assert NULL_METRICS.snapshot()["instruments"] == {}
