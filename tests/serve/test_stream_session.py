"""StreamSession: incremental streaming is bit-identical to batch.

The serving tentpole's core gate: advancing a plan reading by reading
(any block size, including single samples and blocks that straddle
chunk boundaries) yields exactly the batch engine's result — every
contract field within its declared tolerance (<= 1e-9 for traces), for
every snapshot-capable workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.core import assert_fields_match, kernels_for
from repro.serve import StreamSession

STREAMABLE_WORKLOADS = ("monitor", "estimation")


@pytest.mark.parametrize("workload", STREAMABLE_WORKLOADS)
class TestStreamingMatchesBatch:
    @pytest.mark.parametrize("block", [1, 7, 8, 36, None])
    def test_every_block_size_reproduces_batch(self, workload, block,
                                               plan_for, batch_result):
        """Blocks of 1, a straddling prime, a chunk, and run-to-end."""
        session = StreamSession(workload, plan_for(workload))
        while not session.done:
            session.advance(block)
        kernels = kernels_for(workload)
        assert_fields_match(
            workload, f"stream block={block}",
            kernels.contract_fields(batch_result(workload)),
            kernels.contract_fields(session.result()))

    def test_updates_concatenate_to_batch_traces(self, workload,
                                                 plan_for,
                                                 batch_result):
        """The incremental blocks ARE the final traces, in order."""
        session = StreamSession(workload, plan_for(workload))
        times, fields = [], {}
        while not session.done:
            update = session.advance(5)
            times.append(update.time_h)
            for name, blockvals in update.values.items():
                fields.setdefault(name, []).append(blockvals)
        batch = batch_result(workload)
        np.testing.assert_array_equal(np.concatenate(times),
                                      batch.time_h)
        traces = {
            "true_concentration_molar": batch.true_concentration_molar,
            "estimated_concentration_molar":
                (batch.estimated_concentration_molar
                 if workload == "monitor"
                 else batch.monitor.estimated_concentration_molar),
            "measured_current_a":
                (batch.measured_current_a if workload == "monitor"
                 else batch.monitor.measured_current_a),
        }
        if workload == "estimation":
            traces["filtered_concentration_molar"] = \
                batch.filtered_concentration_molar
            traces["filtered_std_molar"] = batch.filtered_std_molar
        assert set(fields) == set(traces)
        for name, expected in traces.items():
            streamed = np.concatenate(fields[name], axis=1)
            np.testing.assert_allclose(streamed, expected, atol=1e-9,
                                       err_msg=f"{workload}: {name}")

    def test_update_shapes_and_cursor(self, workload, plan_for):
        session = StreamSession(workload, plan_for(workload))
        assert session.cursor == 0
        assert session.n_samples == 36
        assert session.n_channels == 2
        assert session.remaining == 36
        update = session.advance(10)
        assert (update.start, update.stop) == (0, 10)
        assert update.n_samples == 10
        assert update.time_h.shape == (10,)
        for block in update.values.values():
            assert block.shape == (2, 10)
        assert session.cursor == 10
        assert session.remaining == 26
        assert not session.done

    def test_final_block_is_clamped(self, workload, plan_for):
        """Asking past the end returns only what remains."""
        session = StreamSession(workload, plan_for(workload))
        session.advance(30)
        update = session.advance(1000)
        assert (update.start, update.stop) == (30, 36)
        assert session.done


class TestPushShapeIsBitIdentical:
    """The live-stream shape: 4 wearers, 5-min readings, 6-hour
    recalibration, pushed in 12-sample blocks against one batch run.
    The stream crosses five reference draws and ends on a short block."""

    def test_pushed_blocks_equal_batch_traces(self):
        from repro.engine.core import run_workload
        from repro.engine.estimation import EstimationPlan
        from repro.engine.monitor import (
            MonitorPlan,
            RecalibrationPolicy,
            glucose_cohort,
        )

        plan = EstimationPlan(monitor=MonitorPlan(
            channels=glucose_cohort(4), duration_h=30.5,
            sample_period_s=300.0, seed=23,
            recalibration=RecalibrationPolicy(reference_interval_h=6.0,
                                              tolerance=0.08)),
            smooth=False)
        session = StreamSession("estimation", plan)
        blocks: dict = {}
        while not session.done:
            for name, block in session.advance(12).values.items():
                blocks.setdefault(name, []).append(block)
        batch = run_workload("estimation", plan)
        assert np.sum(batch.monitor.n_recalibrations) > 0
        expected = {
            "true_concentration_molar": batch.true_concentration_molar,
            "estimated_concentration_molar":
                batch.monitor.estimated_concentration_molar,
            "measured_current_a": batch.monitor.measured_current_a,
            "filtered_concentration_molar":
                batch.filtered_concentration_molar,
            "filtered_std_molar": batch.filtered_std_molar,
        }
        assert set(blocks) == set(expected)
        for name, trace in expected.items():
            assert np.array_equal(np.concatenate(blocks[name], axis=1),
                                  trace), name


@pytest.mark.parametrize("workload", STREAMABLE_WORKLOADS)
class TestSessionErrors:
    def test_advance_past_exhaustion_raises(self, workload, plan_for):
        session = StreamSession(workload, plan_for(workload))
        session.advance(None)
        with pytest.raises(ValueError, match="exhausted"):
            session.advance(1)

    def test_result_before_done_raises(self, workload, plan_for):
        session = StreamSession(workload, plan_for(workload))
        session.advance(3)
        with pytest.raises(ValueError, match="33 of 36"):
            session.result()

    def test_nonpositive_block_raises(self, workload, plan_for):
        session = StreamSession(workload, plan_for(workload))
        with pytest.raises(ValueError, match="at least one"):
            session.advance(0)

    def test_result_is_cached(self, workload, plan_for):
        session = StreamSession(workload, plan_for(workload))
        session.advance(None)
        assert session.result() is session.result()


class TestStreamingSupport:
    def test_non_streaming_workload_rejected(self, plan_for):
        """Workloads without snapshot_version refuse to stream."""
        kernels = kernels_for("calibration")
        assert kernels.snapshot_version is None
        with pytest.raises(ValueError, match="does not support"):
            StreamSession("calibration", kernels.contract_plan())

    def test_wrong_plan_type_rejected(self, plan_for):
        with pytest.raises(ValueError, match="monitor plans must be"):
            StreamSession("monitor", plan_for("estimation"))

    def test_from_scenario_builds_seeded_plan(self):
        from repro.scenarios import Scenario

        scenario = Scenario(
            workload="monitor", name="s", seed=5,
            spec={"cohort": {"sensor": "glucose/this-work",
                             "analyte": "glucose", "n_patients": 2},
                  "duration_h": 6.0, "sample_period_s": 600.0})
        session = StreamSession.from_scenario(scenario)
        assert session.workload == "monitor"
        assert session.plan.seed == 5
        assert session.n_samples == 36


class TestRestoreBuildsStateOnce:
    def test_estimation_restore_builds_the_wear_front_end_once(
            self, monkeypatch):
        """A restore gathers the wear parameters and spawns the
        generator streams once, as opening the stream does, and still
        finishes bit-identically."""
        from repro.engine import monitor
        from repro.engine.estimation import EstimationPlan

        plan = EstimationPlan(monitor=monitor.MonitorPlan(
            channels=monitor.glucose_cohort(4), duration_h=6.0,
            sample_period_s=300.0, seed=23))
        uninterrupted = StreamSession("estimation", plan)
        uninterrupted.advance(None)
        session = StreamSession("estimation", plan)
        session.advance(12)
        snapshot = session.export_state()

        calls = {"from_rows": 0, "spawn_generators": 0}
        from_rows = monitor.WearParams.from_rows.__func__
        spawn = monitor.spawn_generators

        def counted_from_rows(cls, rows):
            calls["from_rows"] += 1
            return from_rows(cls, rows)

        def counted_spawn(*args):
            calls["spawn_generators"] += 1
            return spawn(*args)

        monkeypatch.setattr(monitor.WearParams, "from_rows",
                            classmethod(counted_from_rows))
        monkeypatch.setattr(monitor, "spawn_generators", counted_spawn)
        restored = StreamSession.restore(plan, snapshot)
        assert calls == {"from_rows": 1, "spawn_generators": 1}
        restored.advance(None)
        np.testing.assert_array_equal(
            restored.result().filtered_concentration_molar,
            uninterrupted.result().filtered_concentration_molar)
