"""Quickstart: build the paper's glucose biosensor and calibrate it.

Reproduces the headline row of Table 2 (MWCNT/Nafion + GOD, this work):
sensitivity ~55.5 uA mM^-1 cm^-2, linear range 0-1 mM, LOD ~2 uM —
through the unified scenario front door: the calibration is a
declarative, serializable :class:`repro.scenarios.Scenario` (catalog id
+ seed + plain data), dispatched by ``run_scenario`` and replayable
bit-identically from the JSON it serializes to
(``python -m repro run``).

Run:  python examples/quickstart.py
"""

from repro.core.registry import build_sensor, spec_by_id
from repro.engine import calibration_results_from_batch
from repro.scenarios import Scenario, run_scenario


def main() -> None:
    spec = spec_by_id("glucose/this-work")
    sensor = build_sensor(spec)
    print("Composed sensor:")
    print("  " + sensor.describe())
    print(f"  enzyme coverage: "
          f"{sensor.layer.coverage_mol_m2 * 1e12 / 1e4:.1f} pmol/cm^2")
    print(f"  CNT film: area x{sensor.film.area_enhancement():.0f}, "
          f"electron transfer x{sensor.film.rate_enhancement():.1f}")

    # The whole campaign — blanks + a standard staircase spanning the
    # published range x replicates — as one declarative scenario.  The
    # engine evaluates it vectorized with deterministic per-cell
    # randomness; the JSON form (scenario.to_json()) replays it exactly.
    scenario = Scenario(
        workload="calibration",
        name="glucose-quickstart",
        seed=42,
        spec={"sensors": [spec.sensor_id]})
    batch = run_scenario(scenario)
    result = calibration_results_from_batch(batch)[0]

    print("\nCalibration (successive additions, 3 replicates/standard):")
    for point in result.points:
        print(f"  {point.concentration_molar * 1e3:6.2f} mM -> "
              f"{point.mean_a * 1e9:8.2f} +- {point.std_a * 1e9:5.2f} nA")

    print("\nExtracted metrics vs. paper:")
    print(f"  {result.summary()}")
    print(f"  paper: S = {spec.paper_sensitivity} uA mM^-1 cm^-2, "
          f"linear {spec.paper_range_mm[0]} - {spec.paper_range_mm[1]} mM, "
          f"LOD = {spec.paper_lod_um} uM")
    print("\nReplay from the shell:")
    print("  python -m repro run scenario.json   # scenario.save(...)")


if __name__ == "__main__":
    main()
