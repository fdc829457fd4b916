"""Batch campaign description: what to simulate, and in which cells.

A *campaign* is the cross product the bench protocol walks one point at a
time: sensor panel × concentration grid × replicates.  :class:`BatchPlan`
describes the whole campaign declaratively; the runner
(:func:`repro.engine.run_batch`) evaluates it as array operations instead
of nested Python loops.

Cell indexing is the engine's reproducibility contract: cells are
enumerated sensor-major, then concentration, then replicate, and each cell
gets its own child generator spawned from the plan seed
(``np.random.SeedSequence``).  The result of a cell therefore never
depends on how the campaign is grouped, vectorized, or split across
workers — only on ``(seed, cell index)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.sensor import Biosensor
from repro.engine.core import (
    PlanBase,
    require_at_least,
    require_non_empty,
    require_positive,
)


class CellIndex(NamedTuple):
    """Address of one simulation cell inside a campaign.

    Attributes:
        flat: position in the campaign-wide enumeration (seed order).
        sensor: index into ``plan.sensors``.
        concentration: index into that sensor's concentration grid.
        replicate: replicate number at that concentration.
    """

    flat: int
    sensor: int
    concentration: int
    replicate: int


@dataclass(frozen=True)
class BatchPlan(PlanBase):
    """Declarative description of a calibration campaign.

    Attributes:
        sensors: the sensor panel (one entry per channel).
        concentrations_molar: one concentration grid per sensor [mol/L];
            grids may differ in length and values (each analyte has its
            own range).  Zero entries are blanks.
        replicates: replicate count — a single int applied everywhere, or
            one tuple per sensor with one count per concentration (so a
            calibration can take 8 blanks but 3 replicates per standard).
        seed: root seed for the campaign's per-cell generators; ``None``
            draws an entropy root (irreproducible, but cells stay
            mutually independent).
        add_noise: include instrument + repeatability noise.
        step_duration_s: chronoamperometric step length per cell [s].
        chunk_cells: executor chunk size along the flat cell axis; any
            value yields bit-identical results (per-cell generators make
            each cell independent of its neighbours), so this is purely
            a working-set knob.
    """

    sensors: tuple[Biosensor, ...]
    concentrations_molar: tuple[tuple[float, ...], ...]
    replicates: int | tuple[tuple[int, ...], ...] = 3
    seed: int | None = None
    add_noise: bool = True
    step_duration_s: float = 16.0
    chunk_cells: int = 4096

    def validate(self) -> None:
        """Field-level invariants, in the shared ``PlanBase`` wording."""
        require_non_empty("sensor", self.sensors)
        if len(self.concentrations_molar) != len(self.sensors):
            raise ValueError(
                f"{len(self.sensors)} sensors but "
                f"{len(self.concentrations_molar)} concentration grids")
        for grid in self.concentrations_molar:
            if not grid:
                raise ValueError("every sensor needs at least one "
                                 "concentration (0.0 for a blank)")
            for c in grid:
                if not math.isfinite(c) or c < 0:
                    raise ValueError(
                        f"concentrations must be finite and >= 0, got {c}")
        if isinstance(self.replicates, int):
            if self.replicates < 1:
                raise ValueError("replicates must be >= 1")
        else:
            if len(self.replicates) != len(self.sensors):
                raise ValueError(
                    f"{len(self.sensors)} sensors but "
                    f"{len(self.replicates)} replicate tuples")
            for grid, reps in zip(self.concentrations_molar, self.replicates):
                if len(reps) != len(grid):
                    raise ValueError(
                        "replicate counts must match the concentration "
                        f"grid: {len(reps)} != {len(grid)}")
                if any(r < 1 for r in reps):
                    raise ValueError("replicates must be >= 1")
        require_positive("step_duration_s", self.step_duration_s)
        require_at_least("chunk_cells", self.chunk_cells, 1)

    def replicates_for(self, sensor_index: int) -> tuple[int, ...]:
        """Replicate count at each concentration of one sensor."""
        if isinstance(self.replicates, int):
            return tuple(
                self.replicates
                for __ in self.concentrations_molar[sensor_index])
        return self.replicates[sensor_index]

    @property
    def n_cells(self) -> int:
        """Total number of simulation cells in the campaign."""
        return sum(sum(self.replicates_for(i))
                   for i in range(len(self.sensors)))

    def cells(self) -> Iterator[CellIndex]:
        """Enumerate every cell in canonical (seed) order."""
        flat = 0
        for i, grid in enumerate(self.concentrations_molar):
            reps = self.replicates_for(i)
            for j in range(len(grid)):
                for k in range(reps[j]):
                    yield CellIndex(flat=flat, sensor=i,
                                    concentration=j, replicate=k)
                    flat += 1

    def sensor_cell_span(self, sensor_index: int) -> tuple[int, int]:
        """Half-open range of flat cell indices belonging to one sensor."""
        start = sum(sum(self.replicates_for(i)) for i in range(sensor_index))
        return start, start + sum(self.replicates_for(sensor_index))


@dataclass(frozen=True)
class BatchResult:
    """Evaluated campaign: one signal value per cell.

    Attributes:
        plan: the campaign that produced these values.
        values_a: nested per-sensor, per-concentration replicate arrays —
            ``values_a[i][j]`` is the ``(n_replicates,)`` array of signals
            [A] for sensor ``i`` at its ``j``-th concentration.
    """

    plan: BatchPlan
    values_a: tuple[tuple[np.ndarray, ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.values_a) != len(self.plan.sensors):
            raise ValueError("one value group per sensor required")
        for i, groups in enumerate(self.values_a):
            reps = self.plan.replicates_for(i)
            if len(groups) != len(reps):
                raise ValueError(
                    f"sensor {i}: {len(groups)} concentration groups, "
                    f"expected {len(reps)}")
            for j, (group, n) in enumerate(zip(groups, reps)):
                if group.shape != (n,):
                    raise ValueError(
                        f"sensor {i} concentration {j}: shape "
                        f"{group.shape}, expected ({n},)")

    def replicate_values(self, sensor_index: int,
                         concentration_index: int) -> np.ndarray:
        """Raw replicate signals [A] for one (sensor, concentration)."""
        return self.values_a[sensor_index][concentration_index]

    def means(self, sensor_index: int) -> np.ndarray:
        """Replicate-mean signal [A] at each concentration of a sensor."""
        return np.array([float(np.mean(group))
                         for group in self.values_a[sensor_index]])

    def stds(self, sensor_index: int) -> np.ndarray:
        """Replicate sample std [A] per concentration (0 for one rep)."""
        return np.array([
            float(np.std(group, ddof=1)) if group.size > 1 else 0.0
            for group in self.values_a[sensor_index]])

    def flat_values(self) -> np.ndarray:
        """All cell values in canonical (seed) order, ``(n_cells,)``."""
        return np.concatenate(
            [group for groups in self.values_a for group in groups])

    def summary(self) -> str:
        """One Table-2 row per sensor of a calibration campaign (a
        leading blank group and >= 3 standards), else the campaign size
        plus one signal line per sensor."""
        from repro.engine.calibrate import calibration_results_from_batch

        try:
            return "\n".join(row.summary() for row
                             in calibration_results_from_batch(self))
        except ValueError:
            pass
        plan = self.plan
        lines = [f"{len(plan.sensors)} sensors x {plan.n_cells} cells "
                 f"(seed {plan.seed})"]
        for i, sensor in enumerate(plan.sensors):
            means = self.means(i)
            lines.append(
                f"  {sensor.analyte.name}: {means.size} concentrations, "
                f"mean signal {float(means.min()) * 1e9:.2f} - "
                f"{float(means.max()) * 1e9:.2f} nA")
        return "\n".join(lines)

    def summary_row(self) -> dict:
        """Flat scalar metrics of the campaign (JSON-serializable).

        The tabular-export half of the shared result contract
        (:class:`repro.scenarios.ResultProtocol`): one row a sweep over
        many scenarios can concatenate without schema knowledge.
        """
        flat = self.flat_values()
        return {
            "workload": "calibration",
            "n_sensors": len(self.plan.sensors),
            "n_cells": int(flat.size),
            "seed": self.plan.seed,
            "mean_abs_signal_a": float(np.mean(np.abs(flat))),
            "max_abs_signal_a": float(np.max(np.abs(flat))),
        }

    def to_dict(self, include_traces: bool = False) -> dict:
        """JSON-serializable export of the evaluated campaign.

        Args:
            include_traces: also include every raw replicate value (the
                full per-cell record; off by default — grids and
                replicate statistics are always included).

        Returns:
            ``summary_row()`` plus one entry per sensor with its
            concentration grid and replicate means/stds.
        """
        sensors = []
        for i, sensor in enumerate(self.plan.sensors):
            entry = {
                "analyte": sensor.analyte.name,
                "concentrations_molar": list(
                    self.plan.concentrations_molar[i]),
                "replicates": list(self.plan.replicates_for(i)),
                "mean_a": [float(v) for v in self.means(i)],
                "std_a": [float(v) for v in self.stds(i)],
            }
            if include_traces:
                entry["values_a"] = [
                    [float(v) for v in group] for group in self.values_a[i]]
            sensors.append(entry)
        return {**self.summary_row(), "sensors": sensors}
