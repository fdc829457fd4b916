"""Correctness checks: served and stored outputs against direct runs.

Every check compares what the system under load returned with a fresh
run of the same input through the library, outside the timed phase.
A check that fails counts its operation as failed.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

#: Relative tolerance of every comparison (the repository's own
#: stream-versus-batch gate is 1e-9).
REL_TOL = 1e-9


def mismatch(expected, actual, path: str = "$") -> "str | None":
    """First difference between two JSON-like trees, or None.

    Numbers agree within :data:`REL_TOL` (relative); containers must
    have the same keys and lengths; everything else compares equal.
    """
    if isinstance(expected, np.ndarray):
        expected = expected.tolist()
    if isinstance(actual, np.ndarray):
        actual = actual.tolist()
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or expected.keys() != actual.keys():
            return f"{path}: keys differ"
        for key in expected:
            found = mismatch(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, (list, tuple)) \
                or len(expected) != len(actual):
            return f"{path}: lengths differ"
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = mismatch(left, right, f"{path}[{index}]")
            if found:
                return found
        return None
    if isinstance(expected, numbers.Real) \
            and not isinstance(expected, bool):
        if not isinstance(actual, numbers.Real) or isinstance(actual, bool):
            return f"{path}: {actual!r} is not a number"
        if math.isnan(expected) and math.isnan(actual):
            return None
        if not math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0):
            return f"{path}: expected {expected!r}, got {actual!r}"
        return None
    if expected != actual:
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


def check_shard_row(store, index: int, stored_row: dict) -> "str | None":
    """A stored campaign row against a direct ``run_scenario`` row."""
    from repro.scenarios import run_scenario

    direct = run_scenario(store.shard_scenario(index)).summary_row()
    return mismatch(direct, stored_row, f"shard[{index}]")


def check_job_artifact(submitted: dict, artifact: dict) -> "str | None":
    """A served job artifact against a direct run of the submitted spec."""
    from repro.scenarios import Scenario, ScenarioRun, run_scenario

    scenario = Scenario.from_dict(submitted)
    direct = ScenarioRun(scenario, run_scenario(scenario)).to_dict()
    return mismatch(direct, artifact, "job")


def check_stream_blocks(expected: np.ndarray,
                        blocks: "list[tuple[int, list]]") -> list[str]:
    """Pushed filtered estimates against the batch trace prefix.

    Args:
        expected: the batch run's ``(n_channels, n_samples)`` filtered
            concentration.
        blocks: ``(start, block)`` per push, ``block`` being the
            ``(n_channels, count)`` values the push returned.

    Returns:
        One message per push whose block disagrees.
    """
    problems = []
    for start, block in blocks:
        block = np.asarray(block, dtype=float)
        want = expected[:, start:start + block.shape[1]]
        found = mismatch(want, block, f"push@{start}")
        if found:
            problems.append(found)
    return problems
