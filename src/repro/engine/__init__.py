"""Batched, vectorized simulation engine for calibration campaigns.

The scalar pipeline reproduces the bench protocol one point at a time:
one (sensor, concentration, replicate) cell per call through technique →
TIA → filter → ADC → DSP.  This package evaluates whole campaigns —
sensor panel × concentration grid × replicates — as NumPy array
operations:

* :class:`BatchPlan` / :class:`BatchResult` describe and hold a campaign;
* :func:`run_batch` executes it with deterministic per-cell randomness
  (``np.random.SeedSequence`` spawning — results depend only on the seed
  and the cell's position, never on batch grouping);
* an LRU kernel cache (:mod:`repro.engine.kernels`) serves the repeated
  noiseless step responses and ground-truth chain outputs;
* :func:`run_calibration_batch` / :func:`calibrate_panel` produce the usual
  :class:`~repro.core.calibration.CalibrationResult` rows through the
  shared analysis stage.

Quickstart::

    from repro.core import build_sensor, spec_by_id
    from repro.core import default_protocol_for_range
    from repro.engine import run_calibration_batch

    sensor = build_sensor(spec_by_id("glucose/this-work"))
    protocol = default_protocol_for_range(1e-3)
    result = run_calibration_batch(sensor, protocol, seed=7)
    print(result.summary())

The scalar API (:mod:`repro.core.detection`) remains available and the
amperometric scalar path is a thin single-cell wrapper over this engine.

Beyond single-shot campaigns, :mod:`repro.engine.monitor` streams whole
cohorts of (patient × sensor) channels through days of wear-time as
chunked ``(n_channels, chunk_samples)`` blocks — drift, fouling,
physiological trajectories, online recalibration — with per-channel
MARD / time-in-spec summaries (:class:`MonitorResult`).

The third workload class closes the personalized-medicine loop:
:mod:`repro.engine.therapy` doses virtual patient cohorts
(:mod:`repro.pk`), measures the resulting drug levels through the same
wear physics, and lets a :mod:`repro.therapy` controller adjust every
patient's next dose — scored against the therapeutic window
(:class:`TherapyResult`).

All three workloads share one declarative front door:
:mod:`repro.scenarios` wraps them behind a registry of named workloads,
serializes any configured run as a JSON :class:`~repro.scenarios.Scenario`
artifact, and dispatches them through ``run_scenario`` or the
``python -m repro`` command line.

Under all of them sits one execution core (:mod:`repro.engine.core`):
each workload is a registered :class:`~repro.engine.core.KernelSet`
whose declarative plan compiles to a segment/chunk
:class:`~repro.engine.core.ExecutionPlan`, and the shared executor
threads carry state through the chunk loop; any workload's scalar
reference runs through :func:`repro.engine.core.run_scalar`.
"""

from repro.engine import core
from repro.engine import kernels
from repro.engine import monitor
from repro.engine import therapy
from repro.engine import estimation
from repro.engine.plan import BatchPlan, BatchResult, CellIndex
from repro.engine.measure import (
    measure_amperometric_batch,
    measure_voltammetric_batch,
)
from repro.engine.runner import run_batch
from repro.engine.calibrate import (
    calibrate_panel,
    calibration_plan,
    calibration_result_from_batch,
    calibration_results_from_batch,
    run_calibration_batch,
)
from repro.engine.monitor import (
    MonitorChannel,
    MonitorPlan,
    MonitorResult,
    RecalibrationPolicy,
    cohort,
    digitize_rows,
    glucose_cohort,
    reading_noise_sigma_a,
    run_monitor,
)
from repro.engine.therapy import (
    TherapyPlan,
    TherapyResult,
    run_therapy,
)
from repro.engine.estimation import (
    EstimationPlan,
    EstimationResult,
    run_estimation,
)
from repro.engine.core import (
    kernels_for,
    registered_workloads,
    run_scalar,
    run_workload,
)

__all__ = [
    "BatchPlan",
    "core",
    "kernels_for",
    "registered_workloads",
    "run_scalar",
    "run_workload",
    "BatchResult",
    "CellIndex",
    "kernels",
    "monitor",
    "MonitorChannel",
    "MonitorPlan",
    "MonitorResult",
    "RecalibrationPolicy",
    "cohort",
    "digitize_rows",
    "glucose_cohort",
    "reading_noise_sigma_a",
    "run_monitor",
    "therapy",
    "TherapyPlan",
    "TherapyResult",
    "run_therapy",
    "estimation",
    "EstimationPlan",
    "EstimationResult",
    "run_estimation",
    "measure_amperometric_batch",
    "measure_voltammetric_batch",
    "run_batch",
    "calibrate_panel",
    "calibration_plan",
    "calibration_result_from_batch",
    "calibration_results_from_batch",
    "run_calibration_batch",
]
