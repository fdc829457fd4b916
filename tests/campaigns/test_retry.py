"""Shard retry: failed shards re-queue with backoff, then settle.

``CampaignSpec.max_retries`` re-queues shards whose execution raised.
These tests register a deliberately flaky workload (fails its first N
attempts per shard, succeeding afterwards) to prove that transient
failures heal, permanent failures exhaust the budget and stay
``failed``, the default fails fast, and every re-queue leaves a
``queued`` telemetry event carrying the retry round and backoff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.campaigns import ArtifactStore, CampaignSpec, run_campaign
from repro.campaigns.runner import RETRY_BASE_ENV, _retry_backoff_s
from repro.engine.core import KernelSet, register_kernels, single_segment
from repro.engine.core import registry as kernel_registry
from repro.scenarios import Scenario
from repro.scenarios.protocols import WORKLOADS, register_workload


class _FlakyResult:
    """Minimal ResultProtocol carrier for the flaky workload."""

    def __init__(self, attempts: int) -> None:
        self.attempts = attempts

    def summary(self) -> str:
        return f"flaky: succeeded on attempt {self.attempts}"

    def summary_row(self) -> dict:
        return {"attempts": self.attempts}

    def to_dict(self, include_traces: bool = False) -> dict:
        return {"attempts": self.attempts}


class _FlakyWorkload(KernelSet):
    """Fails each shard's first ``fail_attempts`` runs, then succeeds.

    Attempt counts persist as marker files under the spec's
    ``marker_dir``, keyed by the shard seed — exactly the shape of an
    environmental failure (fails now, succeeds on retry) while staying
    fully in-process.  Both halves of a workload: the kernel set the
    engine registry runs (one chunk) and the spec decoder the scenario
    registry holds.
    """

    name = "flaky-retry-test"
    plan_type = dict

    def build_plan(self, spec, seed):
        return {"marker_dir": spec["marker_dir"],
                "fail_attempts": spec.get("fail_attempts", 1),
                "seed": seed}

    def compile(self, plan):
        return single_segment(self.name, 1, 1, 1)

    def init_state(self, plan):
        return {}

    def run_chunk(self, plan, state, segment, start, stop):
        marker = Path(plan["marker_dir"]) / f"seed-{plan['seed']}"
        attempts = int(marker.read_text()) if marker.exists() else 0
        marker.write_text(str(attempts + 1))
        if attempts < plan["fail_attempts"]:
            raise RuntimeError(
                f"transient failure on attempt {attempts + 1}")
        state["attempts"] = attempts + 1

    def finalize(self, plan, state):
        return _FlakyResult(state["attempts"])

    def run_scalar(self, plan):
        raise NotImplementedError

    def contract_plan(self):
        raise NotImplementedError

    def contract_fields(self, result):
        raise NotImplementedError

    def describe(self) -> str:
        return "test-only flaky workload"

    def example_spec(self) -> dict:
        return {"marker_dir": "/tmp", "fail_attempts": 1}


@pytest.fixture
def flaky_workload(monkeypatch):
    """Register the flaky workload and retry instantly (no backoff)."""
    monkeypatch.setenv(RETRY_BASE_ENV, "0")
    workload = _FlakyWorkload()
    register_kernels(workload)
    register_workload(workload)
    yield _FlakyWorkload.name
    WORKLOADS.pop(_FlakyWorkload.name, None)
    kernel_registry._KERNEL_SETS.pop(_FlakyWorkload.name, None)


def _flaky_spec(name, tmp_path, *, fail_attempts, max_retries,
                n_shards=4):
    base = Scenario(
        workload=_FlakyWorkload.name, name="flaky",
        spec={"marker_dir": str(tmp_path / "markers"),
              "fail_attempts": fail_attempts})
    (tmp_path / "markers").mkdir(exist_ok=True)
    return CampaignSpec(name=name, base=base, n_shards=n_shards,
                        seed=7, max_retries=max_retries)


class TestRetryHealsTransientFailures:
    def test_all_shards_done_after_one_retry(self, flaky_workload,
                                             tmp_path):
        """Each shard fails once; one retry round drives all to done."""
        spec = _flaky_spec("heal", tmp_path, fail_attempts=1,
                           max_retries=2)
        report = run_campaign(spec, tmp_path / "c.sqlite", workers=1)
        assert report.counts == {"pending": 0, "running": 0,
                                 "done": 4, "failed": 0}
        # every shard executed twice: the failed round plus the retry
        assert report.n_executed == 8

    def test_retry_events_carry_round_and_backoff(self, flaky_workload,
                                                  tmp_path):
        """Re-queues land in the telemetry table as 'queued' events."""
        spec = _flaky_spec("audit", tmp_path, fail_attempts=1,
                           max_retries=1, n_shards=2)
        run_campaign(spec, tmp_path / "c.sqlite", workers=1)
        with ArtifactStore.open(tmp_path / "c.sqlite") as store:
            # initial expansion also queues (payload None); the retry
            # re-queues are the ones carrying a payload
            events = [e for e in store.telemetry_events()
                      if e["event"] == "queued"
                      and e["payload"] is not None]
        assert len(events) == 2
        for event in events:
            assert event["payload"]["retry"] == 1
            assert event["payload"]["backoff_s"] == 0.0

    def test_deeper_flakiness_needs_more_rounds(self, flaky_workload,
                                                tmp_path):
        """Shards failing twice heal only with max_retries >= 2."""
        spec = _flaky_spec("deep", tmp_path, fail_attempts=2,
                           max_retries=2, n_shards=2)
        report = run_campaign(spec, tmp_path / "c.sqlite", workers=1)
        assert report.counts["done"] == 2
        assert report.counts["failed"] == 0


class TestRetryBudgetExhaustion:
    def test_permanent_failure_stays_failed(self, flaky_workload,
                                            tmp_path):
        """A shard that always raises exhausts the budget as failed."""
        spec = _flaky_spec("doomed", tmp_path, fail_attempts=99,
                           max_retries=2, n_shards=2)
        report = run_campaign(spec, tmp_path / "c.sqlite", workers=1)
        assert report.counts["failed"] == 2
        assert report.counts["done"] == 0
        # initial round + exactly max_retries re-runs, then give up
        assert report.n_executed == 2 * 3

    def test_default_fails_fast(self, flaky_workload, tmp_path):
        """max_retries=0 (the default) never re-runs a failed shard."""
        spec = _flaky_spec("fast", tmp_path, fail_attempts=1,
                           max_retries=0, n_shards=2)
        report = run_campaign(spec, tmp_path / "c.sqlite", workers=1)
        assert report.counts["failed"] == 2
        assert report.n_executed == 2
        with ArtifactStore.open(tmp_path / "c.sqlite") as store:
            events = [e for e in store.telemetry_events()
                      if e["event"] == "queued"
                      and e["payload"] is not None]
        assert events == []


class TestRetrySpecSurface:
    def test_spec_roundtrip_carries_max_retries(self, monitor_base):
        spec = CampaignSpec(name="r", base=monitor_base, n_shards=2,
                            seed=1, max_retries=3)
        again = CampaignSpec.from_json(spec.to_json())
        assert again.max_retries == 3
        assert again == spec

    def test_max_retries_defaults_to_zero(self, monitor_base):
        spec = CampaignSpec(name="r", base=monitor_base, n_shards=2,
                            seed=1)
        assert spec.max_retries == 0
        assert CampaignSpec.from_dict(spec.to_dict()).max_retries == 0

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "2"])
    def test_invalid_max_retries_rejected(self, monitor_base, bad):
        with pytest.raises(ValueError, match="max_retries"):
            CampaignSpec(name="r", base=monitor_base, n_shards=2,
                         seed=1, max_retries=bad)


class TestBackoffShape:
    def test_exponential_with_bounded_jitter(self, monkeypatch):
        """Round r centers on base * 2**(r-1), jittered within 50 %."""
        monkeypatch.setenv(RETRY_BASE_ENV, "0.5")
        for round_index, center in ((1, 0.5), (2, 1.0), (3, 2.0)):
            samples = [_retry_backoff_s(round_index) for _ in range(32)]
            assert all(0.5 * center <= s < 1.5 * center
                       for s in samples)

    def test_zero_base_disables_waiting(self, monkeypatch):
        monkeypatch.setenv(RETRY_BASE_ENV, "0")
        assert _retry_backoff_s(3) == 0.0
