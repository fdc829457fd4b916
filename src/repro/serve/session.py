"""Incremental execution sessions: one run, advanced reading by reading.

A :class:`StreamSession` is the online counterpart of the batch
executor (:func:`repro.engine.core.execute`): the same compiled plan,
the same kernel set, the same carry state — but the caller owns the
clock.  Each :meth:`StreamSession.advance` call pushes the run forward
by a block of samples (a single reading, a minute, a day) and returns
the incremental per-sample outputs the kernel set publishes through its
``stream_update`` hook; :meth:`StreamSession.result` assembles the
ordinary workload result once the stream is exhausted.

Because the engines are chunk-size-invariant by contract — per-channel
generator streams consumed strictly sequentially, recalibration fired
at absolute sample indices, filter beliefs carried exactly — streaming
a scenario in arbitrary block sizes is gated bit-identical (<= 1e-9) to
one batch run of the same plan (``tests/serve/test_stream_session.py``).

Suspend/resume rides the same contract: :meth:`StreamSession.export_state`
serializes the carry state at the current cursor as a schema-versioned
snapshot (:mod:`repro.engine.core.snapshot`), and
:meth:`StreamSession.restore` rebuilds a session that finishes the run
as if it had never stopped — property-tested across chunk boundaries in
``tests/serve/test_snapshot_property.py``.

Quickstart::

    from repro.engine.monitor import MonitorPlan, glucose_cohort
    from repro.serve import StreamSession

    plan = MonitorPlan(channels=glucose_cohort(4), duration_h=24.0,
                       seed=42)
    session = StreamSession("monitor", plan)
    while not session.done:
        update = session.advance(12)   # one hour of 5-min readings
        latest = update.values["estimated_concentration_molar"][:, -1]
    result = session.result()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine.core import kernels_for, walk_segments


@dataclass(frozen=True)
class StreamUpdate:
    """Incremental outputs of one :meth:`StreamSession.advance` call.

    Attributes:
        start / stop: the absolute sample range ``[start, stop)`` this
            update covers.
        time_h: sample times [h] of the block, ``(stop - start,)``.
        values: per-field blocks, each ``(n_channels, stop - start)`` —
            the workload's streaming fields (the monitor publishes
            truth, estimate and measured current; estimation adds the
            filtered concentration and its posterior std).
    """

    start: int
    stop: int
    time_h: np.ndarray = field(repr=False)
    values: "dict[str, np.ndarray]" = field(repr=False)

    @property
    def n_samples(self) -> int:
        """Samples covered by this update."""
        return self.stop - self.start


class StreamSession:
    """One workload run advanced incrementally under caller control.

    Args:
        workload: registered workload name; its kernel set must declare
            ``snapshot_version`` (the monitor and estimation sets do).
        plan: the workload's declarative plan.
        snapshot: resume point produced by :meth:`export_state`;
            ``None`` starts from sample zero.

    Raises:
        ValueError: for a workload without streaming support, a plan of
            the wrong type, or a snapshot that does not match the plan.
    """

    def __init__(self, workload: str, plan,
                 snapshot: "dict | None" = None) -> None:
        kernels = kernels_for(workload)
        if kernels.snapshot_version is None:
            raise ValueError(
                f"workload {workload!r} does not support streaming "
                f"(its kernel set declares no snapshot_version)")
        if not isinstance(plan, kernels.plan_type):
            raise ValueError(
                f"{workload} plans must be {kernels.plan_type.__name__},"
                f" got {type(plan).__name__}")
        self._kernels = kernels
        self._plan = plan
        self._compiled = kernels.compile(plan)
        if snapshot is None:
            self._state = kernels.init_state(plan)
            self._cursor = 0
        else:
            self._state, self._cursor = kernels.restore_state(
                plan, snapshot)
        self._result: Any = None

    # -- introspection ---------------------------------------------------

    @property
    def workload(self) -> str:
        """Registered workload name this session runs."""
        return self._kernels.name

    @property
    def plan(self):
        """The declarative plan this session advances."""
        return self._plan

    @property
    def cursor(self) -> int:
        """Completed samples — the next ``advance`` starts here."""
        return self._cursor

    @property
    def n_samples(self) -> int:
        """Total samples per channel in the plan."""
        return self._compiled.n_samples

    @property
    def n_channels(self) -> int:
        """Channels advancing through the stream."""
        return self._compiled.n_channels

    @property
    def done(self) -> bool:
        """Whether every sample has been consumed."""
        return self._cursor >= self._compiled.n_samples

    @property
    def remaining(self) -> int:
        """Samples left before the stream is exhausted."""
        return self._compiled.n_samples - self._cursor

    # -- streaming -------------------------------------------------------

    def advance(self, samples: "int | None" = None) -> StreamUpdate:
        """Advance the run by up to ``samples`` readings per channel.

        Args:
            samples: block size; ``None`` runs to the end of the
                stream.  Any positive size is legal — chunk-size
                invariance is the engines' contract — and the block
                advances through the batch executor's own segment walk
                (:func:`repro.engine.core.walk_segments`), so the
                kernel hooks fire exactly as in a batch run.

        Returns:
            The concatenated :class:`StreamUpdate` for the advanced
            range.

        Raises:
            ValueError: for a non-positive block size, or when the
                stream is already exhausted.
        """
        if self.done:
            raise ValueError("stream exhausted: all "
                             f"{self._compiled.n_samples} samples done")
        if samples is None:
            samples = self.remaining
        if samples < 1:
            raise ValueError("advance needs at least one sample")
        start = self._cursor
        times = []
        blocks: "dict[str, list[np.ndarray]]" = {}

        def publish(lo: int, hi: int, seconds: float) -> None:
            update = dict(self._kernels.stream_update(
                self._plan, self._state, lo, hi))
            times.append(np.asarray(update.pop("time_h")))
            for name, block in update.items():
                blocks.setdefault(name, []).append(block)
            self._cursor = hi

        # The block is the chunk size: one chunk per segment it touches.
        walk_segments(self._kernels, self._plan, self._state,
                      self._compiled, start,
                      min(start + samples, self._compiled.n_samples),
                      samples, publish)
        return StreamUpdate(
            start=start,
            stop=self._cursor,
            time_h=np.concatenate(times),
            values={name: np.concatenate(parts, axis=1)
                    for name, parts in blocks.items()},
        )

    def result(self):
        """The workload's ordinary result, once the stream is done.

        Identical (<= 1e-9, gated) to ``run_workload`` on the same
        plan; cached — repeated calls return the same object.

        Raises:
            ValueError: while samples remain unconsumed.
        """
        if not self.done:
            raise ValueError(
                f"stream not finished: {self.remaining} of "
                f"{self._compiled.n_samples} samples remain")
        if self._result is None:
            self._result = self._kernels.finalize(self._plan,
                                                  self._state)
        return self._result

    # -- suspend / resume ------------------------------------------------

    def export_state(self) -> dict:
        """Snapshot the session at its current cursor.

        The returned dict is JSON-serializable (and
        :func:`repro.engine.core.save_snapshot` writes it as a ``.json``
        file); :meth:`restore` rebuilds an equivalent session from it.
        """
        return self._kernels.export_state(self._plan, self._state,
                                          self._cursor)

    @classmethod
    def restore(cls, plan, snapshot: dict) -> "StreamSession":
        """Rebuild a session from a plan and an exported snapshot.

        The workload is read from the snapshot envelope; finishing the
        restored session matches an uninterrupted run bit-identically.
        A malformed snapshot, or one that does not match the plan,
        raises ``ValueError``.
        """
        if not isinstance(snapshot, dict) or "workload" not in snapshot:
            raise ValueError("snapshot must be an export_state() dict")
        return cls(snapshot["workload"], plan, snapshot=snapshot)

    @classmethod
    def from_scenario(cls, scenario) -> "StreamSession":
        """Open a stream for a declarative scenario.

        Decodes the scenario's spec with
        :func:`repro.scenarios.plan_for`, exactly as the batch runner
        does, then streams the resulting plan.

        Raises:
            KeyError: for an unknown workload or catalog reference.
            ValueError: for a malformed spec, or a workload without
                streaming support.
        """
        from repro.scenarios import plan_for

        return cls(scenario.workload, plan_for(scenario))
