"""Campaign execution: evaluate a :class:`BatchPlan` on the core executor.

The calibration workload is a kernel set on the shared execution core
(:mod:`repro.engine.core`): the campaign's flat cell axis is the sample
axis, each sensor's cell span is one segment, and chunks of
``plan.chunk_cells`` cells are dispatched to the appropriate batched
measurement — fully vectorized for amperometric readouts, per-cell (but
still deterministic) for voltammetric ones.  Per-cell spawned generators
make every cell independent of its neighbours, so any chunking yields
bit-identical values.  :func:`run_batch` is the public entry point;
``run_scalar("calibration", plan)`` replays the same plan one cell at a
time through the same generators.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from repro.core.sensor import ReadoutMode
from repro.engine.core import (
    Check,
    KernelSet,
    Segment,
    execute,
    register_kernels,
    spans_to_segments,
)
from repro.engine.measure import (
    measure_amperometric_batch,
    measure_voltammetric_batch,
)
from repro.engine.plan import BatchPlan, BatchResult
from repro.rng import spawn_generators


def run_batch(plan: BatchPlan) -> BatchResult:
    """Evaluate every cell of a campaign.

    Returns a :class:`BatchResult` holding one signal value [A] per cell.
    Determinism contract: with a fixed ``plan.seed``, every cell value is
    reproducible and depends only on its position in the plan's canonical
    enumeration — never on which other cells ran alongside it.
    """
    return execute(CALIBRATION_KERNELS, plan)


def _measure_cells(plan: BatchPlan, sensor, concentrations, cell_rngs):
    """Dispatch one block of cells to the sensor's batched measurement."""
    if sensor.readout is ReadoutMode.AMPEROMETRIC_STEADY_STATE:
        return measure_amperometric_batch(
            sensor, concentrations,
            rngs=cell_rngs if plan.add_noise else None,
            add_noise=plan.add_noise,
            step_duration_s=plan.step_duration_s)
    if sensor.readout is ReadoutMode.VOLTAMMETRIC_PEAK:
        return measure_voltammetric_batch(
            sensor, concentrations,
            rngs=cell_rngs if plan.add_noise else None,
            add_noise=plan.add_noise)
    raise ValueError(f"unhandled readout mode {sensor.readout}")


def _run_batch_scalar(plan: BatchPlan) -> BatchResult:
    """Per-cell scalar reference: one measurement call per cell.

    The historical shape of a campaign — a Python loop over every
    (sensor, concentration, replicate) cell — driven by the *same*
    per-cell generators :func:`run_batch` spawns, so the two paths agree
    bit-for-bit (the engine's reproducibility contract: a cell's value
    depends only on ``(seed, flat position)``, never on how its
    neighbours were grouped).
    """
    rngs = (spawn_generators(plan.seed, plan.n_cells)
            if plan.add_noise else [None] * plan.n_cells)
    values_per_sensor: list[tuple[np.ndarray, ...]] = []
    flat = 0
    for i, sensor in enumerate(plan.sensors):
        groups: list[np.ndarray] = []
        reps = plan.replicates_for(i)
        for j, concentration in enumerate(plan.concentrations_molar[i]):
            cells = np.empty(reps[j])
            for k in range(reps[j]):
                cell_rng = [rngs[flat]] if plan.add_noise else None
                single = np.array([concentration])
                cells[k] = float(_measure_cells(
                    plan, sensor, single, cell_rng)[0])
                flat += 1
            groups.append(cells)
        values_per_sensor.append(tuple(groups))
    return BatchResult(plan=plan, values_a=tuple(values_per_sensor))


class CalibrationKernels(KernelSet):
    """The calibration campaign as a kernel set on the execution core.

    The sample axis is the campaign's flat cell enumeration; each
    sensor's cell span compiles to one segment so a chunk never mixes
    sensors (one readout dispatch per chunk).  Per-cell generators make
    chunking bit-invariant, which the contract declares with ``exact``
    field checks.
    """

    name = "calibration"
    plan_type = BatchPlan

    def compile(self, plan: BatchPlan):
        """One segment per sensor over its half-open flat-cell span."""
        spans = [plan.sensor_cell_span(i)
                 for i in range(len(plan.sensors))]
        return spans_to_segments(self.name, 1, spans, plan.chunk_cells)

    def init_state(self, plan: BatchPlan) -> SimpleNamespace:
        """Spawn the per-cell generators and the flat value buffer."""
        rngs = (spawn_generators(plan.seed, plan.n_cells)
                if plan.add_noise else [None] * plan.n_cells)
        return SimpleNamespace(rngs=rngs,
                               values=np.empty(plan.n_cells),
                               values_per_sensor=[], concs=None)

    def begin_segment(self, plan: BatchPlan, state,
                      segment: Segment) -> None:
        """Expand the segment's sensor grid to one value per cell."""
        i = segment.index
        state.concs = np.repeat(plan.concentrations_molar[i],
                                plan.replicates_for(i))

    def run_chunk(self, plan: BatchPlan, state, segment: Segment,
                  start: int, stop: int) -> None:
        """Measure one block of cells of the segment's sensor."""
        lo = start - segment.start
        hi = stop - segment.start
        state.values[start:stop] = _measure_cells(
            plan, plan.sensors[segment.index], state.concs[lo:hi],
            state.rngs[start:stop])

    def end_segment(self, plan: BatchPlan, state,
                    segment: Segment) -> None:
        """Regroup the sensor's cells by concentration (replicates)."""
        reps = plan.replicates_for(segment.index)
        boundaries = np.cumsum(reps)[:-1]
        seg_values = state.values[segment.start:segment.stop].copy()
        state.values_per_sensor.append(
            tuple(np.split(seg_values, boundaries)))

    def finalize(self, plan: BatchPlan, state) -> BatchResult:
        """Assemble the nested per-sensor replicate groups."""
        return BatchResult(plan=plan,
                           values_a=tuple(state.values_per_sensor))

    def run_scalar(self, plan: BatchPlan) -> BatchResult:
        """Historical cell-by-cell loop over the same generators."""
        return _run_batch_scalar(plan)

    def contract_plan(self) -> BatchPlan:
        """Small mixed panel: amperometric + voltammetric readouts."""
        from repro.core.registry import build_sensor, spec_by_id
        return BatchPlan(
            sensors=(build_sensor(spec_by_id("glucose/this-work")),
                     build_sensor(spec_by_id("cyp/cyclophosphamide"))),
            concentrations_molar=((0.0, 1e-4, 5e-4, 1e-3),
                                  (0.0, 5e-6, 2e-5)),
            replicates=3, seed=1234, chunk_cells=5)

    def with_chunk_samples(self, plan: BatchPlan,
                           chunk_samples: int) -> BatchPlan:
        """The calibration chunk axis is cells, not time samples."""
        return replace(plan, chunk_cells=chunk_samples)

    def contract_fields(self, result: BatchResult) -> dict:
        """Flat cell values; per-cell generators make chunking exact."""
        return {"flat_values": Check(result.flat_values(), exact=True)}


#: The registered calibration kernel set (target of ``run_batch``).
CALIBRATION_KERNELS = register_kernels(CalibrationKernels())
