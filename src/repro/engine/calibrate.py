"""Engine-backed calibration: whole panels through one batched campaign.

The scalar pipeline (:func:`repro.core.calibration.run_calibration`)
measures blank replicates and a standard staircase one point at a time.
Here the same protocol becomes one :class:`BatchPlan` — blanks are the
0.0-concentration group with their own replicate count — and the whole
panel evaluates in a handful of vectorized passes before the shared
analysis stage (:func:`extract_calibration_result`) produces the usual
:class:`CalibrationResult` rows.
"""

from __future__ import annotations

from repro.core.calibration import (
    CalibrationPoint,
    CalibrationProtocol,
    CalibrationResult,
    extract_calibration_result,
)
from repro.core.sensor import Biosensor
from repro.engine.plan import BatchPlan, BatchResult
from repro.engine.runner import run_batch


def calibration_plan(sensors: list[Biosensor],
                     protocols: list[CalibrationProtocol],
                     seed: int | None = None,
                     add_noise: bool = True,
                     step_duration_s: float = 16.0) -> BatchPlan:
    """Build the campaign plan for a panel calibration.

    Each sensor's grid is its protocol's blank (0.0, ``n_blanks``
    replicates) followed by the standards (``n_replicates`` each).
    """
    if len(sensors) != len(protocols):
        raise ValueError(
            f"{len(sensors)} sensors but {len(protocols)} protocols")
    return BatchPlan(
        sensors=tuple(sensors),
        concentrations_molar=tuple(
            (0.0,) + tuple(p.concentrations_molar) for p in protocols),
        replicates=tuple(
            (p.n_blanks,) + (p.n_replicates,) * len(p.concentrations_molar)
            for p in protocols),
        seed=seed,
        add_noise=add_noise,
        step_duration_s=step_duration_s,
    )


def calibration_result_from_batch(result: BatchResult,
                                  sensor_index: int,
                                  protocol: CalibrationProtocol,
                                  ) -> CalibrationResult:
    """Extract one sensor's Table 2 metrics from an evaluated campaign."""
    sensor = result.plan.sensors[sensor_index]
    means = result.means(sensor_index)
    stds = result.stds(sensor_index)
    blanks = result.replicate_values(sensor_index, 0)
    points = [
        CalibrationPoint(
            concentration_molar=concentration,
            mean_a=float(means[j + 1]),
            std_a=float(stds[j + 1]),
            n=result.replicate_values(sensor_index, j + 1).size,
        )
        for j, concentration in enumerate(protocol.concentrations_molar)
    ]
    return extract_calibration_result(
        sensor, protocol, points,
        blank_mean=float(means[0]),
        blank_std=float(stds[0]),
        metadata={"engine": True, "seed": result.plan.seed,
                  "n_blank_cells": int(blanks.size)},
    )


def calibration_results_from_batch(
        result: BatchResult) -> list[CalibrationResult]:
    """Per-sensor Table-2 metrics of an engine-built calibration campaign.

    Re-derives each sensor's :class:`CalibrationProtocol` from the plan
    itself — the leading 0.0 group is the blanks, the rest the standard
    staircase — so a campaign built by :func:`calibration_plan` yields
    the usual :class:`CalibrationResult` rows without carrying protocol
    objects through serialization.  Any other grid is a ``ValueError``.
    """
    results = []
    for i in range(len(result.plan.sensors)):
        grid = result.plan.concentrations_molar[i]
        reps = result.plan.replicates_for(i)
        if grid[0] != 0.0 or len(grid) < 4:
            raise ValueError(
                f"sensor {i}: not a calibration campaign (needs a "
                "leading blank group and >= 3 standards)")
        protocol = CalibrationProtocol(
            concentrations_molar=grid[1:],
            n_blanks=reps[0],
            n_replicates=reps[1])
        results.append(calibration_result_from_batch(result, i, protocol))
    return results


def run_calibration_batch(sensor: Biosensor,
                          protocol: CalibrationProtocol,
                          seed: int | None = None,
                          add_noise: bool = True) -> CalibrationResult:
    """Calibrate one sensor through the batch engine.

    Drop-in counterpart of :func:`repro.core.calibration.run_calibration`
    that evaluates the whole protocol as one vectorized campaign with
    deterministic per-cell randomness derived from ``seed``.
    """
    plan = calibration_plan([sensor], [protocol], seed=seed,
                            add_noise=add_noise)
    return calibration_result_from_batch(run_batch(plan), 0, protocol)


def calibrate_panel(sensors: list[Biosensor],
                    protocols: list[CalibrationProtocol],
                    seed: int | None = None,
                    add_noise: bool = True) -> list[CalibrationResult]:
    """Calibrate a whole sensor panel as one batched campaign.

    Returns one :class:`CalibrationResult` per sensor, in panel order.
    Each cell's randomness is derived from ``(seed, flat cell position)``,
    so a sensor's numbers are stable exactly when its cells keep their
    flat positions: *appending* sensors to a panel preserves the results
    of every sensor already in it, while inserting or reordering shifts
    the positions (and therefore the noise realizations) of everything
    after the insertion point.
    """
    plan = calibration_plan(sensors, protocols, seed=seed,
                            add_noise=add_noise)
    result = run_batch(plan)
    return [calibration_result_from_batch(result, i, protocol)
            for i, protocol in enumerate(protocols)]
