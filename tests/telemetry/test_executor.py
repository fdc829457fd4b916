"""Executor instrumentation: spans and metrics for every workload.

One chunk loop serves all registered kernel sets, so instrumenting it
once gives every workload — and any future fifth — timing for free.
These tests pin what the loop emits (phase spans on the recorder;
chunk/sample counters and the kernel set's ``describe_metrics`` events
on the metrics registry) and, most importantly, that instrumentation
never changes results: the instrumented run is bit-identical to the
disabled one.
"""

import numpy as np

from repro.engine.core import kernels_for, registered_workloads, run_workload
from repro.telemetry import (
    InMemoryRecorder,
    MetricsRegistry,
    set_metrics_registry,
    set_recorder,
)


def run_instrumented(workload, plan):
    """Run ``plan`` under a fresh recorder and registry.

    Returns:
        ``(result, recorder, counters)`` — ``counters`` maps
        ``(family, frozenset(labels.items()))`` to each counter series'
        value in the registry snapshot.
    """
    recorder = InMemoryRecorder()
    registry = MetricsRegistry()
    previous = set_recorder(recorder)
    previous_registry = set_metrics_registry(registry)
    try:
        result = run_workload(workload, plan)
    finally:
        set_recorder(previous)
        set_metrics_registry(previous_registry)
    counters = {
        (name, frozenset(row["labels"].items())): row["value"]
        for name, entry in registry.snapshot()["instruments"].items()
        if entry["type"] == "counter" for row in entry["series"]}
    return result, recorder, counters


def workload_event(counters, workload, event):
    """One ``repro_core_workload_events_total`` series value."""
    return counters[("repro_core_workload_events_total",
                     frozenset({("workload", workload),
                                ("event", event)}))]


class TestCoreSpans:
    def test_monitor_run_emits_phase_spans(self):
        plan = kernels_for("monitor").contract_plan()
        __, recorder, __c = run_instrumented("monitor", plan)
        names = {record.name for record in recorder.spans}
        assert {"core.execute", "core.compile", "core.init_state",
                "core.segment", "core.run_chunk",
                "core.finalize"} <= names
        execute = [r for r in recorder.spans
                   if r.name == "core.execute"]
        assert len(execute) == 1
        assert execute[0].attrs == {"workload": "monitor"}
        assert execute[0].depth == 0

    def test_chunk_and_sample_counters_add_up(self):
        kernels = kernels_for("monitor")
        plan = kernels.contract_plan()
        __, recorder, counters = run_instrumented("monitor", plan)
        compiled = kernels.compile(plan)
        n_samples = sum(segment.stop - segment.start
                        for segment in compiled.segments)
        chunk_spans = [r for r in recorder.spans
                       if r.name == "core.run_chunk"]
        labels = frozenset({("workload", "monitor")})
        assert counters[("repro_core_chunks_total", labels)] == \
            len(chunk_spans)
        assert counters[("repro_core_samples_total", labels)] == \
            compiled.n_channels * n_samples

    def test_run_chunk_spans_carry_segment_index(self):
        plan = kernels_for("therapy").contract_plan()
        __, recorder, __c = run_instrumented("therapy", plan)
        segments = {record.attrs["segment"]
                    for record in recorder.spans
                    if record.name == "core.segment"}
        assert segments == {0, 1, 2}  # three dose intervals

    def test_every_registered_workload_gets_spans(self):
        for workload in registered_workloads():
            plan = kernels_for(workload).contract_plan()
            __, recorder, __c = run_instrumented(workload, plan)
            names = {record.name for record in recorder.spans}
            assert "core.execute" in names, workload
            assert "core.run_chunk" in names, workload


class TestDescribeMetrics:
    def test_monitor_metrics_land_as_counters(self):
        plan = kernels_for("monitor").contract_plan()
        result, __, counters = run_instrumented("monitor", plan)
        assert workload_event(counters, "monitor", "recalibrations") == \
            int(np.sum(result.n_recalibrations))
        assert workload_event(counters, "monitor", "readings") == \
            plan.n_channels * plan.n_samples
        assert workload_event(counters, "monitor",
                              "rail_censored_samples") >= 0

    def test_therapy_metrics_land_as_counters(self):
        plan = kernels_for("therapy").contract_plan()
        result, __, counters = run_instrumented("therapy", plan)
        assert workload_event(counters, "therapy", "doses") == \
            result.doses_mol.size
        assert workload_event(counters, "therapy", "doses_adjusted") == \
            int(np.sum(np.diff(result.doses_mol, axis=1) != 0.0))

    def test_default_describe_metrics_is_empty(self):
        kernels = kernels_for("calibration")
        assert kernels.describe_metrics(None, None) == {}


class TestInstrumentationIsInert:
    def test_instrumented_result_bit_identical_to_disabled(self):
        plan = kernels_for("monitor").contract_plan()
        baseline = run_workload("monitor", plan)
        instrumented, __, __c = run_instrumented("monitor", plan)
        np.testing.assert_array_equal(
            baseline.measured_current_a,
            instrumented.measured_current_a)
        np.testing.assert_array_equal(baseline.mard, instrumented.mard)
        np.testing.assert_array_equal(baseline.n_recalibrations,
                                      instrumented.n_recalibrations)
