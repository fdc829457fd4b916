"""Bench: batch engine vs. the historical per-point calibration pipeline.

The engine's reason to exist: a Table-2-style campaign (sensor panel x
concentration grid x replicates) evaluated as vectorized array
operations must report the same physics as the historical
one-point-per-call loop.  Asserts the noiseless batch and scalar outputs
are numerically equivalent (1e-12) on the full glucose panel.

The speedup gate for this workload (and every other registered one)
runs in ``bench_core.py`` through the shared harness
(``benchmarks/harness.py``); the execution-contract gates (chunk
invariance, scalar equivalence, deterministic replay) live in
``tests/engine/test_core_contract.py``.
"""

import numpy as np

from repro.engine import BatchPlan, run_batch

N_REPLICATES = 25


def test_noiseless_equivalence(calibration_panel, historical_point):
    sensors, grids = calibration_panel
    plan = BatchPlan(sensors=sensors, concentrations_molar=grids,
                     replicates=N_REPLICATES, seed=None, add_noise=False)
    batch = run_batch(plan).flat_values()
    scalar = np.array([
        historical_point(sensor, concentration, add_noise=False)
        for sensor, grid in zip(sensors, grids)
        for concentration in grid
        for __ in range(N_REPLICATES)])
    np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0.0)
