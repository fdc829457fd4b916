"""The kernel-set contract: what a workload registers with the core.

A workload joins the execution core by subclassing :class:`KernelSet`
and registering one instance.  The subclass supplies three surfaces:

* **Execution** — ``compile`` turns the declarative plan into an
  :class:`~repro.engine.core.plan.ExecutionPlan`; ``init_state`` builds
  the carry state threaded through every chunk; ``begin_segment`` /
  ``run_chunk`` / ``end_segment`` advance it; ``finalize`` assembles
  the result object.  The executor owns the loop — kernel sets never
  iterate chunks themselves.

* **Reference** — ``run_scalar`` is the slow, per-element reference
  implementation the vectorized kernels are checked against (the
  registry exposes it as ``run_scalar(workload, plan)``).

* **Contract** — ``contract_plan`` / ``with_chunk_samples`` /
  ``contract_fields`` let the shared contract suite prove chunk-size
  invariance, scalar equivalence, and deterministic replay for every
  registered workload from one parametrized test, with each field's
  tolerance declared as a :class:`Check`.

* **Snapshot** (optional) — a kernel set that declares
  ``snapshot_version`` additionally supports incremental execution:
  ``export_state`` serializes the carry state at sample *k* as a
  schema-versioned snapshot (:mod:`repro.engine.core.snapshot` wire
  format), ``restore_state`` rebuilds it, and ``stream_update`` yields
  the incremental per-chunk outputs a live consumer (a
  :class:`repro.serve.StreamSession`) reads as readings arrive.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.engine.core.plan import ExecutionPlan, Segment


@dataclass(frozen=True)
class Check:
    """One result field plus the tolerance it is compared under.

    Attributes:
        value: the field's value in one particular run.
        atol: absolute tolerance for float comparisons.
        rtol: relative tolerance for float comparisons.
        exact: compare with ``==`` (ints, tuples, event lists) instead
            of a toleranced float comparison.
    """

    value: Any
    atol: float = 1e-9
    rtol: float = 0.0
    exact: bool = False


class KernelSet(abc.ABC):
    """Everything one workload teaches the execution core.

    Class attributes:
        name: registry key (``"calibration"``, ``"monitor"``, ...).
        plan_type: the declarative plan dataclass this set compiles.
        snapshot_version: version stamp of this kernel set's snapshot
            content (``None`` — the default — means the workload does
            not support suspend/resume; see the snapshot surface
            below).
    """

    name: ClassVar[str]
    plan_type: ClassVar[type]
    snapshot_version: ClassVar["int | None"] = None

    # -- execution surface -------------------------------------------------

    @abc.abstractmethod
    def compile(self, plan) -> ExecutionPlan:
        """Compile the declarative plan into an execution plan."""

    @abc.abstractmethod
    def init_state(self, plan) -> Any:
        """Build the carry state threaded through every chunk."""

    def begin_segment(self, plan, state, segment: Segment) -> None:
        """Hook run before a segment's first chunk (default: no-op)."""

    @abc.abstractmethod
    def run_chunk(self, plan, state, segment: Segment,
                  start: int, stop: int) -> None:
        """Advance the carry state over samples ``[start, stop)``."""

    def end_segment(self, plan, state, segment: Segment) -> None:
        """Hook run after a segment's last chunk (default: no-op)."""

    @abc.abstractmethod
    def finalize(self, plan, state):
        """Assemble the workload's result object from the carry state."""

    # -- snapshot surface --------------------------------------------------

    def export_state(self, plan, state, cursor: int) -> dict:
        """Serialize the carry state after ``cursor`` completed samples.

        Returns a schema-versioned, JSON-serializable snapshot dict
        (see :mod:`repro.engine.core.snapshot` for the wire format and
        the envelope helpers).  Restoring it with :meth:`restore_state`
        and finishing the run must reproduce the uninterrupted result
        bit-identically (<= 1e-9, property-tested in
        ``tests/serve/test_snapshot_property.py``).  Only kernel sets
        declaring ``snapshot_version`` implement this.
        """
        raise NotImplementedError(
            f"{self.name} kernels do not support state snapshots "
            f"(snapshot_version is None)")

    def restore_state(self, plan, snapshot) -> "tuple[Any, int]":
        """Rebuild ``(state, cursor)`` from an :meth:`export_state` dict.

        The returned state must be indistinguishable from one that ran
        ``[0, cursor)`` in-process: generator streams repositioned,
        accumulators and live calibration restored, trace prefixes
        filled.  Raises ``ValueError`` for snapshots of another
        workload, schema or plan shape.
        """
        raise NotImplementedError(
            f"{self.name} kernels do not support state snapshots "
            f"(snapshot_version is None)")

    def stream_update(self, plan, state, start: int, stop: int) -> dict:
        """Incremental outputs of the chunk that just ran.

        Called by a :class:`repro.serve.StreamSession` immediately
        after ``run_chunk(plan, state, segment, start, stop)`` with the
        same bounds; returns ``{field: (n_channels, stop - start)
        array}`` of the per-sample quantities a live consumer wants
        (filtered estimates, measured currents, truth where the
        simulator knows it).  Only kernel sets declaring
        ``snapshot_version`` implement this.
        """
        raise NotImplementedError(
            f"{self.name} kernels do not support streaming "
            f"(snapshot_version is None)")

    # -- telemetry surface -------------------------------------------------

    def describe_metrics(self, plan, result) -> "dict[str, float]":
        """Workload-specific event counts for one finished run.

        Called by the executor *only when metrics are enabled*, after
        ``finalize``; each ``{event: value}`` entry is added to the
        registry counter ``repro_core_workload_events_total`` with
        labels ``workload`` and ``event`` (e.g. ``workload="monitor",
        event="recalibrations"``).  Values must be plain non-negative
        numbers.  The default is no workload-specific events — the
        core's spans and throughput counters still apply.
        """
        return {}

    # -- reference surface -------------------------------------------------

    @abc.abstractmethod
    def run_scalar(self, plan):
        """Per-element reference implementation (slow, no chunking)."""

    # -- contract surface --------------------------------------------------

    @abc.abstractmethod
    def contract_plan(self):
        """A small declarative plan the shared contract suite can run
        in well under a second."""

    def with_chunk_samples(self, plan, chunk_samples: int):
        """Return a copy of ``plan`` with a different chunking policy.

        The default assumes the plan dataclass carries a
        ``chunk_samples`` field; workloads whose knob lives elsewhere
        (calibration chunks cells, estimation chunks the wrapped
        monitor) override this.
        """
        return dataclasses.replace(plan, chunk_samples=chunk_samples)

    @abc.abstractmethod
    def contract_fields(self, result) -> "dict[str, Check]":
        """Map result-field names to :class:`Check` comparisons.

        The shared contract suite runs the workload twice (different
        chunking, or batch vs. scalar) and asserts each named field
        agrees under its declared tolerance.
        """
