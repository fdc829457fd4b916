"""Experiment: regenerate Table 2 (the 18-sensor comparison).

Every row is produced by the *full* pipeline: spec -> physical inversion ->
forward simulation (enzyme flux -> current -> TIA -> ADC -> DSP) ->
calibration extraction.  The result rows carry paper and measured values
side by side plus agreement ratios for the benchmarks and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.calibration import (
    CalibrationResult,
    default_protocol_for_range,
    run_calibration,
)
from repro.core.registry import (
    SensorSpec,
    TABLE2_SPECS,
    build_sensor,
    specs_by_group,
)
from repro.engine import calibrate_panel
from repro.rng import generator_from_seed
from repro.units import micromolar_from_molar, millimolar_from_molar, molar_from_millimolar


@dataclass(frozen=True)
class Table2Row:
    """Paper-vs-measured record for one Table 2 row.

    Attributes:
        spec: the sensor configuration.
        result: full calibration result from the simulated pipeline.
        sensitivity_ratio: measured / paper sensitivity.
        range_upper_ratio: measured / paper linear-range upper bound.
        lod_ratio: measured / assumed-paper LOD.
    """

    spec: SensorSpec
    result: CalibrationResult
    sensitivity_ratio: float
    range_upper_ratio: float
    lod_ratio: float

    @property
    def measured_sensitivity(self) -> float:
        """Measured sensitivity [uA mM^-1 cm^-2]."""
        return self.result.sensitivity_paper

    @property
    def measured_range_mm(self) -> tuple[float, float]:
        """Measured linear range [mM]."""
        low, high = self.result.linear_range_molar
        return (millimolar_from_molar(low), millimolar_from_molar(high))

    @property
    def measured_lod_um(self) -> float:
        """Measured limit of detection [uM]."""
        return micromolar_from_molar(self.result.lod_molar)


def run_table2(groups: list[str] | None = None,
               seed: int = 7,
               n_blanks: int = 8,
               n_replicates: int = 3,
               use_engine: bool = True) -> dict[str, Table2Row]:
    """Regenerate Table 2 (optionally one group) through the full pipeline.

    Args:
        groups: analyte groups to run (default: all four).
        seed: RNG seed shared across the run (reproducibility).  With the
            engine, the seed roots one ``np.random.SeedSequence`` whose
            children drive every simulation cell, so the whole table
            replays deterministically.
        n_blanks: blank replicates per sensor (more blanks tighten the
            LOD estimate, whose sampling error is ~1/sqrt(2(n-1))).
        n_replicates: replicates per standard.
        use_engine: run all sensors as one batched campaign through
            :mod:`repro.engine` (default); ``False`` replays the
            historical scalar per-point loop, preserved as the reference
            implementation the engine is benchmarked against.

    Returns:
        sensor_id -> :class:`Table2Row`, in table order.
    """
    if groups is None:
        specs: tuple[SensorSpec, ...] = TABLE2_SPECS
    else:
        specs = tuple(spec for group in groups
                      for spec in specs_by_group(group))
    sensors = [build_sensor(spec) for spec in specs]
    protocols = [
        default_protocol_for_range(
            molar_from_millimolar(spec.paper_range_mm[1]),
            n_blanks=n_blanks,
            n_replicates=n_replicates,
        )
        for spec in specs
    ]
    if use_engine:
        results = calibrate_panel(sensors, protocols, seed=seed)
    else:
        rng = generator_from_seed(seed)
        results = [run_calibration(sensor, protocol, rng)
                   for sensor, protocol in zip(sensors, protocols)]
    rows: dict[str, Table2Row] = {}
    for spec, result in zip(specs, results):
        rows[spec.sensor_id] = Table2Row(
            spec=spec,
            result=result,
            sensitivity_ratio=result.sensitivity_paper / spec.paper_sensitivity,
            range_upper_ratio=(millimolar_from_molar(
                result.linear_range_molar[1]) / spec.paper_range_mm[1]),
            lod_ratio=(micromolar_from_molar(result.lod_molar)
                       / spec.assumed_lod_um),
        )
    return rows


def rows_to_text(rows: dict[str, Table2Row]) -> str:
    """Render rows as a fixed-width paper-vs-measured table."""
    header = (f"{'sensor':<30} {'S paper':>9} {'S meas':>9} "
              f"{'hi paper':>9} {'hi meas':>9} {'LOD paper':>10} {'LOD meas':>9}")
    lines = [header, "-" * len(header)]
    group = None
    for row in rows.values():
        if row.spec.group != group:
            group = row.spec.group
            lines.append(f"[{group}]")
        label = row.spec.label + " " + row.spec.reference
        if row.spec.group == "cyp":
            label = f"{row.spec.analyte_name} ({row.spec.enzyme_name})"
        lines.append(
            f"{label:<30} "
            f"{row.spec.paper_sensitivity:>9.3f} {row.measured_sensitivity:>9.3f} "
            f"{row.spec.paper_range_mm[1]:>9.3f} {row.measured_range_mm[1]:>9.3f} "
            f"{row.spec.assumed_lod_um:>10.2f} {row.measured_lod_um:>9.2f}")
    return "\n".join(lines)
