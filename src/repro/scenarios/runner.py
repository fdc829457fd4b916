"""Scenario dispatch: run one scenario, or fan a list across workloads.

:func:`run_scenario` is the single-call front door — decode the spec
into a plan (:func:`plan_for`), then execute it through the engine
registry.  :func:`run_scenarios` is the batch
form: it spawns one independent ``SeedSequence`` stream per scenario
from a root seed (the same collision-resistant derivation the engines
use per cell/channel/patient), assigns the derived seed to every
scenario that does not carry an explicit one, and returns the
materialized, fully replayable :class:`ScenarioRun` records — each of
which can be serialized and re-run bit-identically on its own.

:func:`run_isolated` and :func:`fork_context` are the pieces the two
process-pool callers share — campaign shards and served jobs both run a
scenario in a worker process under private telemetry and ship the
spans and metrics back to the parent, and each pool worker exits once
its parent is gone (:func:`_exit_with_parent`).
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.engine.core import run_scalar, run_workload
from repro.engine.estimation import EstimationPlan
from repro.engine.monitor import MonitorPlan
from repro.engine.plan import BatchPlan
from repro.engine.therapy import TherapyPlan
from repro.scenarios.protocols import ResultProtocol, workload_by_name
from repro.scenarios.spec import Scenario

#: Most readings (rows x samples) one scenario may ask the engine for.
#: The largest example, test and benchmark shapes ask for under 10**7;
#: 10**9 would run for minutes and, with traces kept, need tens of GB.
MAX_READINGS = 10**8


def spawn_scenario_seeds(root_seed: int | None, n: int) -> list[int]:
    """Derive ``n`` independent integer seeds from one root seed.

    ``np.random.SeedSequence.spawn`` keeps the derived streams mutually
    independent and collision-resistant (the contract
    :func:`repro.rng.spawn_generators` rests on); each child is folded
    to a plain ``int`` so the resolved scenario stays JSON-serializable.
    A ``None`` root draws an entropy root — independent but not
    replayable, exactly like the engines' own ``seed=None`` paths.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    root = np.random.SeedSequence(root_seed)
    return [int(child.generate_state(1, np.uint32)[0])
            for child in root.spawn(n)]


@dataclass(frozen=True)
class ScenarioRun:
    """One executed scenario: the seed-resolved spec plus its result.

    Attributes:
        scenario: the scenario actually run — seeds resolved, so saving
            ``scenario.to_json()`` reproduces ``result`` bit for bit.
        result: the workload's engine result
            (:class:`~repro.scenarios.ResultProtocol`).
    """

    scenario: Scenario
    result: ResultProtocol

    def summary(self) -> str:
        """The scenario name plus the result's own summary."""
        return (f"[{self.scenario.workload}] {self.scenario.name}\n"
                f"{self.result.summary()}")

    def to_dict(self, include_traces: bool = False) -> dict:
        """Replayable artifact: the scenario envelope + result export."""
        return {"scenario": self.scenario.to_dict(),
                "result": self.result.to_dict(
                    include_traces=include_traces)}


def _readings(plan) -> float:
    """Readings a decoded plan asks for, from its counts alone (nothing
    is compiled or allocated); 0 for a plan type it does not know."""
    if isinstance(plan, BatchPlan):
        return plan.step_duration_s * sum(
            sum(plan.replicates_for(i)) * sensor.ca_protocol.sampling_rate_hz
            for i, sensor in enumerate(plan.sensors))
    if isinstance(plan, TherapyPlan):
        return plan.n_patients * plan.n_samples
    if isinstance(plan, (MonitorPlan, EstimationPlan)):
        return plan.n_channels * plan.n_samples
    return 0


def plan_for(scenario: Scenario):
    """Decode a scenario's spec into its workload's engine plan.

    A wrong-typed or overflowing spec value, or a plan asking for more
    than :data:`MAX_READINGS` readings, raises ``ValueError`` like any
    bad spec.
    """
    try:
        plan = workload_by_name(scenario.workload).build_plan(
            scenario.spec, scenario.seed)
        readings = float(_readings(plan))
    except (TypeError, OverflowError) as error:
        raise ValueError(f"{scenario.workload} spec: {error}") from error
    if not readings <= MAX_READINGS:
        raise ValueError(
            f"{scenario.workload} spec asks for {readings:.3g} readings; "
            f"the limit is {MAX_READINGS:.0e}")
    return plan


def run_scenario(scenario: Scenario,
                 scalar: bool = False) -> ResultProtocol:
    """Execute one scenario through the engine registry.

    Args:
        scenario: the declarative run description.
        scalar: use the workload's scalar equivalence-reference path
            instead of the vectorized engine (slow; for verification).

    Returns:
        The workload's engine result (a
        :class:`~repro.scenarios.ResultProtocol`).
    """
    run = run_scalar if scalar else run_workload
    return run(scenario.workload, plan_for(scenario))


def run_scenarios(scenarios: Iterable[Scenario],
                  root_seed: int | None = None,
                  scalar: bool = False) -> tuple[ScenarioRun, ...]:
    """Fan a list of scenarios across their workloads, seeds spawned.

    Every scenario *without* an explicit seed receives one derived from
    ``root_seed`` via :func:`spawn_scenario_seeds` — position-stable, so
    appending scenarios to a campaign never changes the seeds of the
    scenarios already in it.  Explicit seeds are kept untouched.

    Args:
        scenarios: the campaign, any mix of workloads.
        root_seed: root of the per-scenario seed streams (``None``
            draws entropy — independent but irreproducible).
        scalar: run every scenario on its scalar reference path.

    Returns:
        One :class:`ScenarioRun` per scenario, in input order, each
        holding the seed-resolved scenario it actually executed.
    """
    campaign = tuple(scenarios)
    derived = spawn_scenario_seeds(root_seed, len(campaign))
    runs = []
    for scenario, child_seed in zip(campaign, derived):
        resolved = (scenario if scenario.seed is not None
                    else scenario.with_seed(child_seed))
        runs.append(ScenarioRun(
            scenario=resolved,
            result=run_scenario(resolved, scalar=scalar)))
    return tuple(runs)


def run_isolated(scenario: Scenario, spans: bool, metrics: bool):
    """Run one scenario under a private recorder and metrics registry.

    The process's active recorder and registry are swapped out for the
    run and restored afterwards, so nothing the run records reaches
    them: the caller decides where its spans and metrics go.  A
    campaign shard replays them into its process and persists them; a
    served job ships them from its worker process back to the server.
    A run that raises keeps nothing: the exception propagates and its
    telemetry is dropped.

    Args:
        scenario: the scenario to run.
        spans: record spans into a private
            :class:`~repro.telemetry.InMemoryRecorder` (else none).
        metrics: meter into a private
            :class:`~repro.telemetry.MetricsRegistry` (else none).

    Returns:
        ``(result, spans, metrics_snapshot)`` — the list of
        :class:`~repro.telemetry.SpanRecord` and the registry
        :meth:`~repro.telemetry.MetricsRegistry.snapshot`, each None
        when its flag is off.
    """
    from repro.telemetry import (
        NULL_METRICS,
        NULL_RECORDER,
        InMemoryRecorder,
        MetricsRegistry,
        get_metrics_registry,
        get_recorder,
        set_metrics_registry,
        set_recorder,
    )

    recorder = InMemoryRecorder() if spans else NULL_RECORDER
    registry = MetricsRegistry() if metrics else NULL_METRICS
    parent, parent_registry = get_recorder(), get_metrics_registry()
    set_recorder(recorder)
    set_metrics_registry(registry)
    try:
        result = run_scenario(scenario)
    finally:
        set_recorder(parent)
        set_metrics_registry(parent_registry)
    return (result, recorder.spans if spans else None,
            registry.snapshot() if metrics else None)


def fork_context():
    """The ``fork`` multiprocessing context, or the default one.

    Forked workers share the parent's already-imported numpy/scipy
    stack and its registered workloads instead of re-importing them;
    where ``fork`` is unavailable the platform default is used.
    """
    available = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if available else None)


def _exit_with_parent() -> None:
    """Make this pool worker exit once its parent process is gone.

    A worker whose parent was killed would wait for work forever.  A
    daemon thread waits on the parent's sentinel, then sends the main
    thread ``SIGTERM``; the worker's own ``SIGTERM`` disposition ends
    it.  Call from a pool initializer, after any handler is installed.
    """
    parent = multiprocessing.parent_process()
    main = threading.main_thread().ident

    def watch() -> None:
        parent.join()
        signal.pthread_kill(main, signal.SIGTERM)

    threading.Thread(target=watch, name="parent-watch",
                     daemon=True).start()
