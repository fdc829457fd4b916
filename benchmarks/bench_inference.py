"""Bench: the inference subsystem's accuracy and calibration claims.

Three domain claims on a cohort-sized reconstruction:

* **calibration** — the 95 % credible intervals empirically cover the
  ground truth within [0.90, 0.99] on a seeded cohort, for both the
  causal filter and the smoother (a filter with wrong intervals is
  *confidently* wrong — worse than none);
* **value** — the model-based reconstruction beats the monitor's linear
  estimator on MARD, and smoothing must not be worse;
* **closed loop** — handing the therapy controller Kalman-filtered
  troughs (with variances) improves cohort time-in-range over raw
  readouts.

The speedup gate for this workload (and every other registered one)
runs in ``bench_core.py`` through the shared harness
(``benchmarks/harness.py``); the execution-contract gates (chunk
invariance, scalar equivalence, deterministic replay) live in
``tests/engine/test_core_contract.py``.
"""

from dataclasses import replace

import numpy as np

from repro.engine.estimation import run_estimation
from repro.engine.therapy import run_therapy


def test_interval_coverage_calibrated(estimation_cohort_plan):
    """The uncertainty claim: nominal 95 % bands must cover 90-99 % of
    the ground truth on a seeded cohort, filter and smoother alike."""
    result = run_estimation(estimation_cohort_plan())
    filtered = float(np.mean(result.filtered_coverage))
    smoothed = float(np.mean(result.smoothed_coverage))
    print(f"\nempirical 95 %-interval coverage: filtered "
          f"{filtered * 100:.1f} %, smoothed {smoothed * 100:.1f} %")
    assert 0.90 <= filtered <= 0.99, filtered
    assert 0.90 <= smoothed <= 0.99, smoothed


def test_reconstruction_beats_linear_estimator(estimation_cohort_plan):
    """The accuracy claim: the model-based filter must cut the monitor's
    linear-estimator MARD hard, and smoothing must not be worse."""
    result = run_estimation(estimation_cohort_plan())
    filtered = float(np.mean(result.filtered_mard))
    linear = float(np.mean(result.linear_mard))
    smoothed_rmse = float(np.mean(result.smoothed_rmse_molar))
    filtered_rmse = float(np.mean(result.filtered_rmse_molar))
    print(f"\ncohort MARD: filtered {filtered * 100:.1f} % vs linear "
          f"estimator {linear * 100:.1f} %")
    assert filtered < 0.5 * linear
    assert smoothed_rmse <= filtered_rmse * 1.01


def test_filtered_troughs_improve_dosing(therapy_course_plan):
    """The closed-loop claim: Bayesian dosing on Kalman-filtered trough
    estimates (variance-weighted) must beat the same controller on raw
    noisy readouts — more time in the therapeutic window, tighter
    trough targeting."""
    raw_plan = therapy_course_plan(keep_traces=False)
    filtered_plan = replace(raw_plan, filter_troughs=True)
    raw = run_therapy(raw_plan)
    filtered = run_therapy(filtered_plan)
    raw_tir = float(np.mean(raw.time_in_range))
    filtered_tir = float(np.mean(filtered.time_in_range))
    raw_err = float(np.mean(raw.trough_abs_rel_error))
    filtered_err = float(np.mean(filtered.trough_abs_rel_error))
    print(f"\ntime-in-range: filtered troughs {filtered_tir * 100:.1f} % "
          f"vs raw readouts {raw_tir * 100:.1f} %; trough error "
          f"{filtered_err * 100:.1f} % vs {raw_err * 100:.1f} %")
    assert filtered_tir > raw_tir
    assert filtered_err < raw_err
