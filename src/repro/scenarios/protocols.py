"""Workload protocol and registry: the contract behind the front door.

A *workload* is one engine entry point packaged behind a uniform
surface: a name, the plan type it builds, a vectorized ``run`` path, a
scalar equivalence reference ``run_scalar``, and a ``summarize`` that
renders its result for humans.  The four engine workloads (calibration,
monitoring, therapy, estimation) register themselves in the global
:data:`WORKLOADS` registry at import time, so a
:class:`~repro.scenarios.Scenario` names its workload by string and
anything that iterates :func:`available_workloads` — the CLI, the batch
dispatcher, the round-trip tests — picks new workloads up for free.

Results flow back through :class:`ResultProtocol`, the shared export
contract every engine result type (:class:`~repro.engine.BatchResult`,
:class:`~repro.engine.MonitorResult`, :class:`~repro.engine.TherapyResult`,
:class:`~repro.engine.EstimationResult`) implements: a human
``summary()``, a flat JSON-able ``summary_row()`` for tabular sweeps,
and a full ``to_dict()`` artifact export.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol, runtime_checkable


@runtime_checkable
class ResultProtocol(Protocol):
    """Common export surface every engine result implements.

    Structural (duck-typed) protocol: the engine result dataclasses are
    not subclasses, they just provide these three methods — which is
    what lets one CLI / one export path serve all workloads.
    """

    def summary(self) -> str:
        """Multi-line human-readable outcome summary."""
        ...

    def summary_row(self) -> dict:
        """Flat scalar metrics as one JSON-serializable row."""
        ...

    def to_dict(self, include_traces: bool = False) -> dict:
        """Full JSON-serializable export (traces optional)."""
        ...


@runtime_checkable
class Workload(Protocol):
    """One registered engine workload behind the scenario front door.

    Implementations carry two attributes — ``name`` (the registry key a
    :class:`~repro.scenarios.Scenario` references) and ``plan_type``
    (the engine plan dataclass ``build_plan`` produces) — plus the five
    methods below.  They hold no per-run state: a workload is a pure
    adapter from declarative spec mappings to engine calls.
    """

    name: str
    plan_type: type

    def build_plan(self, spec: Mapping[str, Any], seed: int | None) -> Any:
        """Resolve a declarative spec mapping into an engine plan."""
        ...

    def run(self, plan: Any) -> ResultProtocol:
        """Execute a plan on the vectorized engine path."""
        ...

    def run_scalar(self, plan: Any) -> ResultProtocol:
        """Execute a plan on the scalar equivalence-reference path."""
        ...

    def summarize(self, result: ResultProtocol) -> str:
        """Render a result of this workload for humans."""
        ...

    def describe(self) -> str:
        """Spec documentation plus a runnable example (CLI help text)."""
        ...

    def example_spec(self) -> dict:
        """A small, runnable example spec mapping."""
        ...


#: Global workload registry, keyed by workload name.  The built-in
#: engine workloads register here when :mod:`repro.scenarios.workloads`
#: imports; downstream code may register additional workloads through
#: :func:`register_workload`.
WORKLOADS: dict[str, Workload] = {}


def register_workload(workload: Workload,
                      replace: bool = False) -> Workload:
    """Register a workload under its ``name`` and return it.

    Args:
        workload: the implementation to expose.
        replace: allow overwriting an existing registration (off by
            default so two workloads cannot silently shadow each other).

    Returns:
        The registered workload (so calls can be chained/assigned).
    """
    name = workload.name
    if not replace and name in WORKLOADS:
        raise ValueError(f"workload {name!r} is already registered; "
                         f"pass replace=True to overwrite")
    WORKLOADS[name] = workload
    return workload


def workload_by_name(name: str) -> Workload:
    """Resolve a registered workload (KeyError listing the registry)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: "
            f"{sorted(WORKLOADS)}") from None


def available_workloads() -> tuple[str, ...]:
    """The registered workload names, sorted."""
    return tuple(sorted(WORKLOADS))
