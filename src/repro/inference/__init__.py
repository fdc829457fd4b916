"""Analyte state estimation: currents back to concentrations, with
uncertainty.

Every engine in this library runs *forward* — concentration in, drifting
noisy current out.  The clinical loop needs the inverse: given the
current stream a worn sensor actually produced, what was the patient's
concentration, and how sure are we?  This package is that inverse layer:

* :mod:`repro.inference.observation` — builds the filter's observation
  model *from the monitor's own physics* (calibrated slope +
  :class:`~repro.core.longterm.DriftBudget` decay, baseline drift, OU
  wander, chain noise, ADC quantization floor), so estimator and
  simulator can never disagree about the model;
* :mod:`repro.inference.kalman` — a batch Kalman filter and RTS
  smoother vectorized over ``(n_channels, n_samples)`` cohort blocks,
  with a bit-identical scalar reference (gated <= 1e-9 in
  ``tests/engine/test_core_contract.py`` and >= 5x slower in
  ``benchmarks/bench_core.py``);
* :mod:`repro.inference.evaluate` — RMSE / MARD against ground truth
  and empirical credible-interval coverage.

The engine entry point is :func:`repro.engine.run_estimation`
(:mod:`repro.engine.estimation`), registered as the ``estimation``
scenario workload and runnable via ``python -m repro run``.

Quickstart::

    from repro.engine import MonitorPlan, glucose_cohort
    from repro.engine.estimation import EstimationPlan, run_estimation

    plan = EstimationPlan(monitor=MonitorPlan(
        channels=glucose_cohort(n_patients=8),
        duration_h=48.0, seed=42))
    result = run_estimation(plan)
    print(result.summary())   # RMSE, MARD, 95 %-interval coverage
"""

from repro.inference.evaluate import (
    credible_interval,
    interval_coverage,
    reconstruction_mard,
    reconstruction_rmse,
)
from repro.inference.kalman import (
    KalmanState,
    KalmanTrace,
    kalman_filter_batch,
    kalman_filter_scalar,
    kalman_predict,
    kalman_update,
    rts_smoother_batch,
    rts_smoother_scalar,
)
from repro.inference.observation import (
    MonitorObservationModel,
    monitor_observation_model,
    observation_variance_a2,
    quantization_sigma_a,
    rail_censored_mask,
    response_linearization,
)

__all__ = [
    "KalmanState",
    "KalmanTrace",
    "MonitorObservationModel",
    "credible_interval",
    "interval_coverage",
    "kalman_filter_batch",
    "kalman_filter_scalar",
    "kalman_predict",
    "kalman_update",
    "monitor_observation_model",
    "observation_variance_a2",
    "quantization_sigma_a",
    "rail_censored_mask",
    "reconstruction_mard",
    "reconstruction_rmse",
    "response_linearization",
    "rts_smoother_batch",
    "rts_smoother_scalar",
]
