"""Snapshot wire format: suspend at k, serialize, restore, finish.

Covers the :mod:`repro.engine.core.snapshot` primitives (array / rng
codecs, envelope validation, ``.json`` files) and the
kernel-set snapshot surface end to end: a session suspended at an
arbitrary cursor, serialized through real JSON text, restored in a
fresh session, must finish bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine.core import (
    SNAPSHOT_SCHEMA_VERSION,
    assert_fields_match,
    decode_array,
    decode_rng,
    encode_array,
    encode_rng,
    kernels_for,
    load_snapshot,
    require_snapshot,
    save_snapshot,
    snapshot_envelope,
)
from repro.engine.monitor import MonitorPlan, glucose_cohort
from repro.serve import StreamSession

STREAMABLE_WORKLOADS = ("monitor", "estimation")


class TestArrayCodec:
    @pytest.mark.parametrize("array", [
        np.linspace(-1e-9, 1e9, 7),
        np.arange(12, dtype=np.int64).reshape(3, 4),
        np.array([], dtype=np.float64),
        np.array(3.141592653589793),
    ])
    def test_json_round_trip_is_exact(self, array):
        encoded = json.loads(json.dumps(encode_array(array)))
        decoded = decode_array(encoded)
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        np.testing.assert_array_equal(decoded, array)

    def test_non_array_rejected(self):
        with pytest.raises(ValueError, match="not an encoded array"):
            decode_array({"dtype": "float64"})


class TestRngCodec:
    def test_restored_generator_continues_identically(self):
        rng = np.random.default_rng(42)
        rng.standard_normal(17)  # advance to a non-trivial position
        state = json.loads(json.dumps(encode_rng(rng)))
        clone = decode_rng(state)
        np.testing.assert_array_equal(clone.standard_normal(8),
                                      rng.standard_normal(8))

    def test_unknown_bit_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown bit generator"):
            decode_rng({"bit_generator": "Antikythera", "state": {}})


class TestEnvelope:
    def test_require_returns_cursor(self):
        snapshot = snapshot_envelope("monitor", 1, 17)
        assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert require_snapshot(snapshot, "monitor", 1, 36) == 17

    def test_wrong_workload_rejected(self):
        snapshot = snapshot_envelope("monitor", 1, 17)
        with pytest.raises(ValueError, match="belongs to workload"):
            require_snapshot(snapshot, "estimation",
                             kernels_for("estimation").snapshot_version,
                             36)

    def test_wrong_snapshot_version_rejected(self):
        snapshot = snapshot_envelope("monitor", 2, 17)
        with pytest.raises(ValueError, match="snapshot_version"):
            require_snapshot(snapshot, "monitor", 1, 36)

    def test_wrong_schema_version_rejected(self):
        snapshot = dict(snapshot_envelope("monitor", 1, 17),
                        schema_version=99)
        with pytest.raises(ValueError, match="schema_version"):
            require_snapshot(snapshot, "monitor", 1, 36)

    @pytest.mark.parametrize("cursor", [-1, 37, 1.5, "3", True])
    def test_out_of_range_cursor_rejected(self, cursor):
        snapshot = dict(snapshot_envelope("monitor", 1, 0),
                        cursor=cursor)
        with pytest.raises(ValueError, match="cursor"):
            require_snapshot(snapshot, "monitor", 1, 36)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            require_snapshot({"workload": "monitor"}, "monitor", 1, 36)


@pytest.mark.parametrize("workload", STREAMABLE_WORKLOADS)
class TestSuspendResume:
    @pytest.mark.parametrize("k", [1, 8, 13, 35])
    def test_resume_matches_uninterrupted(self, workload, k, plan_for,
                                          batch_result):
        """Suspend at k (chunk edge or mid-chunk), JSON, resume."""
        plan = plan_for(workload)
        session = StreamSession(workload, plan)
        session.advance(k)
        wire = json.dumps(session.export_state())  # real serialization
        resumed = StreamSession.restore(plan, json.loads(wire))
        assert resumed.cursor == k
        resumed.advance(None)
        kernels = kernels_for(workload)
        assert_fields_match(
            workload, f"resume at k={k}",
            kernels.contract_fields(batch_result(workload)),
            kernels.contract_fields(resumed.result()))

    def test_snapshot_size_is_cursor_independent(self, workload,
                                                 plan_for):
        """Carry state (traces aside) must not grow with the stream."""
        plan = plan_for(workload)
        session = StreamSession(workload, plan)
        session.advance(4)
        early = session.export_state()
        session.advance(28)
        late = session.export_state()

        def carry_bytes(snapshot):
            slim = {key: value for key, value in snapshot.items()
                    if key not in ("trace", "traces")}
            if "monitor" in slim and isinstance(slim["monitor"], dict):
                slim["monitor"] = {
                    key: value
                    for key, value in slim["monitor"].items()
                    if key != "traces"}
            return len(json.dumps(slim))

        assert carry_bytes(late) == pytest.approx(carry_bytes(early),
                                                  rel=0.02)


@pytest.mark.parametrize("suffix", [".json"])
@pytest.mark.parametrize("workload", STREAMABLE_WORKLOADS)
class TestSnapshotFiles:
    def test_disk_round_trip_finishes_identically(self, workload,
                                                  suffix, plan_for,
                                                  batch_result,
                                                  tmp_path):
        plan = plan_for(workload)
        session = StreamSession(workload, plan)
        session.advance(13)
        path = save_snapshot(session.export_state(),
                             tmp_path / f"snap{suffix}")
        resumed = StreamSession.restore(plan, load_snapshot(path))
        resumed.advance(None)
        kernels = kernels_for(workload)
        assert_fields_match(
            workload, f"disk {suffix}",
            kernels.contract_fields(batch_result(workload)),
            kernels.contract_fields(resumed.result()))

    def test_other_suffixes_rejected(self, workload, suffix, plan_for,
                                     tmp_path):
        session = StreamSession(workload, plan_for(workload))
        session.advance(13)
        snapshot = session.export_state()
        for bad in ("snap.npz", "snap.txt", "snap"):
            with pytest.raises(ValueError, match=r"\.json"):
                save_snapshot(snapshot, tmp_path / bad)
            with pytest.raises(ValueError, match=r"\.json"):
                load_snapshot(tmp_path / bad)
        assert not any(tmp_path.iterdir())


def _drop(node, key):
    del node[key]


#: Malformed-snapshot mutations: ``(id, mutate(snapshot, monitor))``,
#: where ``monitor`` is the monitor part (the snapshot itself for a
#: monitor run, the nested ``"monitor"`` entry for an estimation run).
MONITOR_MUTATIONS = [
    ("short-rng-list", lambda s, m: m["rngs"].update(
        wander=m["rngs"]["wander"][:-1])),
    ("short-slopes", lambda s, m: m.update(
        slopes=encode_array(np.ones(1)))),
    ("bool-cursor", lambda s, m: s.update(cursor=True)),
    ("object-dtype", lambda s, m: m["slopes"].update(dtype="object")),
    ("bad-dtype", lambda s, m: m["slopes"].update(dtype="float99")),
    ("short-data", lambda s, m: m["slopes"].update(data=[1.0])),
    ("seed-sequence", lambda s, m: m["rngs"]["trajectory"][0].update(
        bit_generator="SeedSequence")),
    ("string-state", lambda s, m: m["rngs"]["measurement"][0].update(
        state="x")),
    ("rng-not-mapping", lambda s, m: m["rngs"]["wander"].__setitem__(
        0, "PCG64")),
    ("missing-wander", lambda s, m: _drop(m["rngs"], "wander")),
    ("missing-slopes", lambda s, m: _drop(m, "slopes")),
    ("missing-n-channels", lambda s, m: _drop(m, "n_channels")),
    ("int-recal-times", lambda s, m: m.update(recal_times=5)),
    ("string-recal-time", lambda s, m: m.update(
        recal_times=[["6.0"], []])),
    ("short-trace", lambda s, m: m["traces"].update(
        measured_current_a=encode_array(np.zeros((2, 4))))),
]

ESTIMATION_MUTATIONS = [
    ("missing-trace", lambda s, m: _drop(s, "trace")),
    ("missing-trace-moment", lambda s, m: _drop(s["trace"], "p12")),
    ("wide-trace", lambda s, m: s["trace"].update(
        m1=encode_array(np.zeros((3, 5))))),
    ("long-trace", lambda s, m: s["trace"].update(
        p11=encode_array(np.zeros((2, 6))))),
    ("trace-not-mapping", lambda s, m: s.update(trace=[])),
]


class TestMalformedSnapshots:
    """Restore reads outside input: every malformed snapshot is a
    ``ValueError``, never another exception and never a silent load."""

    @staticmethod
    def _snapshot(workload, plan):
        session = StreamSession(workload, plan)
        session.advance(5)
        snapshot = json.loads(json.dumps(session.export_state()))
        return snapshot, (snapshot["monitor"] if workload == "estimation"
                          else snapshot)

    @pytest.mark.parametrize(
        "workload,mutate",
        [pytest.param(workload, mutate, id=f"{workload}-{name}")
         for workload in STREAMABLE_WORKLOADS
         for name, mutate in MONITOR_MUTATIONS]
        + [pytest.param("estimation", mutate, id=f"estimation-{name}")
           for name, mutate in ESTIMATION_MUTATIONS])
    def test_restore_raises_value_error(self, workload, mutate,
                                        plan_for):
        plan = plan_for(workload)
        snapshot, monitor = self._snapshot(workload, plan)
        StreamSession.restore(plan, snapshot)  # the unmutated one loads
        mutate(snapshot, monitor)
        with pytest.raises(ValueError):
            StreamSession.restore(plan, snapshot)

    def test_version_one_estimation_snapshot_rejected(self, plan_for):
        """Version 1 also stored the predicted moments; this build
        derives them and reads version 2 only."""
        assert kernels_for("estimation").snapshot_version == 2
        plan = plan_for("estimation")
        snapshot, __ = self._snapshot("estimation", plan)
        snapshot["snapshot_version"] = 1
        with pytest.raises(ValueError, match="snapshot_version 1"):
            StreamSession.restore(plan, snapshot)

    def test_estimation_snapshot_holds_five_moments(self, plan_for):
        """The filtered moments only: the smoother derives the
        predictions, and the next chunk starts from the last column."""
        snapshot, __ = self._snapshot("estimation",
                                      plan_for("estimation"))
        assert set(snapshot["trace"]) == {"m1", "m2", "p11", "p12",
                                          "p22"}
        assert "kalman" not in snapshot


class TestTracelessMonitor:
    def test_traceless_snapshot_omits_traces(self):
        plan = MonitorPlan(channels=glucose_cohort(2), duration_h=6.0,
                           sample_period_s=600.0, chunk_samples=8,
                           seed=11, keep_traces=False)
        session = StreamSession("monitor", plan)
        session.advance(10)
        snapshot = session.export_state()
        assert "traces" not in snapshot
        resumed = StreamSession.restore(plan, snapshot)
        resumed.advance(None)
        batch = kernels_for("monitor")
        reference = batch.finalize(plan, _drive_batch(batch, plan))
        np.testing.assert_allclose(resumed.result().mard,
                                   reference.mard, atol=1e-12)

    def test_traceless_snapshot_cannot_fill_traced_plan(self, plan_for):
        traceless = MonitorPlan(channels=glucose_cohort(2),
                                duration_h=6.0, sample_period_s=600.0,
                                chunk_samples=8, seed=11,
                                keep_traces=False)
        session = StreamSession("monitor", traceless)
        session.advance(10)
        with pytest.raises(ValueError, match="keep_traces"):
            StreamSession.restore(plan_for("monitor"),
                                  session.export_state())


def _drive_batch(kernels, plan):
    """Run a plan through the raw kernel hooks (no registry result)."""
    compiled = kernels.compile(plan)
    state = kernels.init_state(plan)
    for segment in compiled.segments:
        kernels.begin_segment(plan, state, segment)
        start = segment.start
        while start < segment.stop:
            stop = min(start + plan.chunk_samples, segment.stop)
            kernels.run_chunk(plan, state, segment, start, stop)
            start = stop
        kernels.end_segment(plan, state, segment)
    return state
