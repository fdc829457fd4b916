"""Plan graph: validated plan base + compiled execution descriptions.

Two layers live here, one declarative and one compiled:

* :class:`PlanBase` is the shared root of every engine plan dataclass
  (:class:`~repro.engine.BatchPlan`, :class:`~repro.engine.MonitorPlan`,
  :class:`~repro.engine.TherapyPlan`,
  :class:`~repro.engine.EstimationPlan`).  It routes ``__post_init__``
  into a single ``validate()`` hook and ships the field validators
  (:func:`require_positive` and friends) that keep ``ValueError``
  wording consistent across all workloads — "duration_h must be > 0"
  reads the same whether a monitor or a therapy plan raised it.

* :class:`ExecutionPlan` is what a workload's kernel set *compiles* a
  declarative plan into: the channel axis, the sample axis, the chunking
  policy, and the segment graph the executor walks.  A
  :class:`Segment` is a half-open ``[start, stop)`` range of absolute
  sample indices with begin/end hooks — one segment per dose interval
  for therapy, one per sensor for calibration campaigns, one spanning
  the whole horizon for monitoring.  Chunking never crosses a segment
  boundary, and all state threading between chunks happens through the
  kernel set's carry state, which is exactly why results are
  chunk-size-invariant by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def require_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and >= 0."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def require_at_least(name: str, value: float, minimum: float) -> None:
    """Raise ``ValueError`` unless ``value`` >= ``minimum``."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def require_in_open_unit_interval(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies strictly in (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")


def require_non_empty(name: str, value) -> None:
    """Raise ``ValueError`` unless the sequence has at least one entry."""
    if not value:
        raise ValueError(f"plan needs at least one {name}")


def require_row_block(name: str, block, n_rows: int) -> None:
    """Raise ``ValueError`` unless ``block`` is ``(n_rows, n_samples)``."""
    if block.ndim != 2 or block.shape[0] != n_rows:
        raise ValueError(f"{name} block must be ({n_rows}, n_samples), "
                         f"got {block.shape}")


@dataclass(frozen=True)
class PlanBase:
    """Shared, validated base of every declarative engine plan.

    Subclasses are frozen dataclasses describing one workload run; they
    implement :meth:`validate` (called automatically after
    construction) using the module's ``require_*`` validators so every
    engine raises field-level ``ValueError`` messages with one wording.
    """

    def __post_init__(self) -> None:
        """Dataclass hook: run :meth:`validate` on every construction."""
        self.validate()

    def validate(self) -> None:
        """Check field-level invariants; raise ``ValueError`` on the
        first violation.  Subclasses must override."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement validate()")


@dataclass(frozen=True)
class Segment:
    """One contiguous stretch of the sample axis the executor walks.

    Attributes:
        index: position of the segment in its execution plan — the dose
            interval number for therapy, the sensor index for
            calibration campaigns.
        start: first absolute sample index of the segment (inclusive).
        stop: one past the last absolute sample index (exclusive).

    Segments carry *meaning* for the kernel set's begin/end hooks (a
    therapy controller fixes the cohort's doses when its interval
    segment begins; a campaign splits one sensor's cells into replicate
    groups when its segment ends); the executor itself only walks them
    in order and never chunks across a boundary.
    """

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(
                f"segment [{self.start}, {self.stop}) must be a "
                "non-empty range of non-negative sample indices")


@dataclass(frozen=True)
class ExecutionPlan:
    """A declarative plan compiled for the chunked kernel executor.

    Attributes:
        workload: registry name of the kernel set that compiled it.
        n_channels: size of the vectorized (channel / patient / cell
            row) axis.
        n_samples: total length of the sample axis across all segments.
        chunk_samples: samples advanced per kernel invocation — purely
            a memory/throughput knob, never a semantic one (results
            are chunk-size-invariant).
        segments: the ordered segment graph; segments must tile
            ``[0, n_samples)`` without gaps or overlaps.
    """

    workload: str
    n_channels: int
    n_samples: int
    chunk_samples: int
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        require_positive("n_channels", self.n_channels)
        require_positive("n_samples", self.n_samples)
        require_at_least("chunk_samples", self.chunk_samples, 1)
        require_non_empty("segment", self.segments)
        cursor = 0
        for segment in self.segments:
            if segment.start != cursor:
                raise ValueError(
                    f"segments must tile the sample axis: segment "
                    f"{segment.index} starts at {segment.start}, "
                    f"expected {cursor}")
            cursor = segment.stop
        if cursor != self.n_samples:
            raise ValueError(
                f"segments cover [0, {cursor}) but the plan declares "
                f"{self.n_samples} samples")


def single_segment(workload: str, n_channels: int, n_samples: int,
                   chunk_samples: int) -> ExecutionPlan:
    """Compile the common one-segment shape (monitor, estimation).

    Args:
        workload: registry name of the compiling kernel set.
        n_channels / n_samples: axis sizes.
        chunk_samples: chunking policy.

    Returns:
        An :class:`ExecutionPlan` whose single segment spans the whole
        sample axis.
    """
    return ExecutionPlan(
        workload=workload,
        n_channels=n_channels,
        n_samples=n_samples,
        chunk_samples=chunk_samples,
        segments=(Segment(index=0, start=0, stop=n_samples),))


def uniform_segments(workload: str, n_channels: int, n_segments: int,
                     samples_per_segment: int,
                     chunk_samples: int) -> ExecutionPlan:
    """Compile an evenly tiled segment graph (therapy dose intervals).

    Args:
        workload: registry name of the compiling kernel set.
        n_channels: vectorized axis size.
        n_segments: number of equal segments (e.g. dose intervals).
        samples_per_segment: sample-axis length of each segment.
        chunk_samples: chunking policy (applied within each segment).

    Returns:
        An :class:`ExecutionPlan` with ``n_segments`` equal segments.
    """
    require_positive("n_segments", n_segments)
    require_positive("samples_per_segment", samples_per_segment)
    return ExecutionPlan(
        workload=workload,
        n_channels=n_channels,
        n_samples=n_segments * samples_per_segment,
        chunk_samples=chunk_samples,
        segments=tuple(
            Segment(index=k, start=k * samples_per_segment,
                    stop=(k + 1) * samples_per_segment)
            for k in range(n_segments)))


def spans_to_segments(workload: str, n_channels: int,
                      spans: "tuple[tuple[int, int], ...]",
                      chunk_samples: int) -> ExecutionPlan:
    """Compile explicit half-open spans (calibration sensor slices).

    Args:
        workload: registry name of the compiling kernel set.
        n_channels: vectorized axis size.
        spans: one ``(start, stop)`` per segment, tiling the axis.
        chunk_samples: chunking policy.

    Returns:
        An :class:`ExecutionPlan` with one segment per span.
    """
    require_non_empty("span", spans)
    return ExecutionPlan(
        workload=workload,
        n_channels=n_channels,
        n_samples=spans[-1][1],
        chunk_samples=chunk_samples,
        segments=tuple(
            Segment(index=i, start=start, stop=stop)
            for i, (start, stop) in enumerate(spans)))
