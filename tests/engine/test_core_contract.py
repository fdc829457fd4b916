"""One contract suite for every registered workload.

The execution core owns the invariants every engine used to test
separately: chunk-size invariance, scalar equivalence, and
deterministic replay.  Each registered :class:`KernelSet` declares its
own contract plan and per-field tolerances, so one parametrized suite
covers all four workloads — and any fifth registered later, for free.
"""

from __future__ import annotations

import pytest

from repro.engine.core import (
    check_chunk_invariance,
    check_deterministic_replay,
    check_scalar_equivalence,
    kernels_for,
    registered_workloads,
    run_workload,
)

WORKLOADS = registered_workloads()


def test_all_four_engines_are_registered():
    assert set(WORKLOADS) >= {"calibration", "monitor", "therapy",
                              "estimation"}


@pytest.mark.parametrize("workload", WORKLOADS)
class TestExecutionContract:
    def test_deterministic_replay(self, workload):
        """Same plan, same seed: the executor replays bit for bit."""
        check_deterministic_replay(kernels_for(workload))

    def test_chunk_size_invariance(self, workload):
        """Chunking is a working-set knob, never a results knob."""
        check_chunk_invariance(kernels_for(workload))

    def test_scalar_equivalence(self, workload):
        """The chunked path agrees with the per-element reference."""
        check_scalar_equivalence(kernels_for(workload))


@pytest.mark.parametrize("workload", WORKLOADS)
class TestRegistry:
    def test_run_workload_dispatches(self, workload):
        kernels = kernels_for(workload)
        result = run_workload(workload, kernels.contract_plan())
        assert kernels.contract_fields(result)

    def test_plan_type_enforced(self, workload):
        with pytest.raises(TypeError, match="kernels expect"):
            run_workload(workload, object())


def test_unknown_workload_rejected():
    with pytest.raises(KeyError, match="unknown workload"):
        kernels_for("centrifuge")


class TestRegistryGuards:
    def test_duplicate_registration_rejected(self):
        kernels = kernels_for("monitor")
        with pytest.raises(ValueError, match="already registered"):
            from repro.engine.core import register_kernels
            register_kernels(kernels)

    def test_replace_allows_reregistration(self):
        from repro.engine.core import register_kernels
        kernels = kernels_for("monitor")
        assert register_kernels(kernels, replace=True) is kernels
