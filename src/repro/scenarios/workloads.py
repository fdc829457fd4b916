"""The built-in workloads: the four engines behind one surface.

Each class here is a thin, stateless adapter that resolves a plain-JSON
spec mapping into the corresponding engine plan — catalog ids become
sensors (:func:`repro.core.registry.spec_by_id`), drug names become
:class:`~repro.pk.drugs.DrugSpec` entries, controller kinds become
:mod:`repro.therapy` controllers — and forwards ``run``/``run_scalar``
to the *existing* engine entry points.  The engines stay the
implementation; nothing re-implements physics here.

Spec validation is strict: unknown keys raise ``ValueError`` naming the
allowed set, so a typo in a scenario file fails loudly instead of being
silently ignored.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.core.calibration import (
    CalibrationProtocol,
    CalibrationResult,
    default_protocol_for_range,
)
from repro.engine.calibrate import calibration_plan, calibration_result_from_batch
from repro.engine import core as engine_core
from repro.engine.estimation import (
    EstimationPlan,
    EstimationResult,
    run_estimation,
)
from repro.engine.monitor import (
    MonitorPlan,
    MonitorResult,
    RecalibrationPolicy,
    cohort,
    run_monitor,
)
from repro.engine.plan import BatchPlan, BatchResult
from repro.engine.runner import run_batch
from repro.engine.therapy import TherapyPlan, TherapyResult, run_therapy
from repro.pk.drugs import DrugSpec, drug_by_name
from repro.pk.models import Route
from repro.scenarios.protocols import Workload, register_workload
from repro.therapy.controllers import (
    BayesianTroughController,
    DosingController,
    FixedRegimenController,
    ProportionalTroughController,
)


def _check_keys(spec: Mapping[str, Any], allowed: Iterable[str],
                required: Iterable[str], context: str) -> None:
    """Reject unknown keys and missing required keys of a spec mapping."""
    allowed = set(allowed)
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(
            f"{context} spec has unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")
    missing = set(required) - set(spec)
    if missing:
        raise ValueError(f"{context} spec is missing {sorted(missing)}")


def _recalibration_from(cfg: Mapping[str, Any]) -> RecalibrationPolicy:
    """Build a :class:`RecalibrationPolicy` from its spec mapping."""
    _check_keys(cfg, {"reference_interval_h", "tolerance", "enabled"},
                (), "recalibration")
    return RecalibrationPolicy(**cfg)


def _describe(workload: Workload, field_docs: str) -> str:
    """Assemble the shared ``describe()`` layout of a workload."""
    doc = (type(workload).__doc__ or "").strip().splitlines()[0]
    example = json.dumps(workload.example_spec(), indent=2)
    return (f"{workload.name}: {doc}\n"
            f"plan type: {workload.plan_type.__name__}\n\n"
            f"spec fields:\n{field_docs}\n"
            f"example spec:\n{example}")


def calibration_results_from_batch(
        result: BatchResult) -> list[CalibrationResult]:
    """Per-sensor Table-2 metrics of an engine-built calibration campaign.

    Re-derives each sensor's :class:`CalibrationProtocol` from the plan
    itself — the leading 0.0 group is the blanks, the rest the standard
    staircase — so a campaign produced by the calibration workload (or
    by :func:`repro.engine.calibration_plan`) yields the usual
    :class:`CalibrationResult` rows without carrying protocol objects
    through serialization.
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


class CalibrationWorkload:
    """Batched calibration campaigns (:func:`repro.engine.run_batch`).

    Spec fields (``sensors`` required):

    * ``sensors`` — list of registry sensor ids (e.g.
      ``"glucose/this-work"``), one channel per entry;
    * ``upper_molar`` — staircase upper bound [mol/L]: one number shared
      by the panel, one entry per sensor, or omitted for each spec's
      published linear-range upper bound;
    * ``n_blanks`` / ``n_replicates`` — replicate counts (default 5 / 3);
    * ``add_noise`` — include instrument + repeatability noise
      (default true);
    * ``step_duration_s`` — chronoamperometric step length (default 16).
    """

    name = "calibration"
    plan_type = BatchPlan

    _ALLOWED = frozenset({"sensors", "upper_molar", "n_blanks",
                          "n_replicates", "add_noise", "step_duration_s"})

    def build_plan(self, spec: Mapping[str, Any],
                   seed: int | None) -> BatchPlan:
        """Resolve catalog ids and staircase bounds into a ``BatchPlan``."""
        # Imported here: the registry composes sensors out of half the
        # library, and only plan building needs it.
        from repro.core.platform import default_calibration_upper
        from repro.core.registry import build_sensor, spec_by_id

        _check_keys(spec, self._ALLOWED, {"sensors"}, self.name)
        ids = spec["sensors"]
        if isinstance(ids, str) or not ids:
            raise ValueError("sensors must be a non-empty list of "
                             "registry sensor ids")
        sensor_specs = [spec_by_id(sensor_id) for sensor_id in ids]
        upper = spec.get("upper_molar")
        if upper is None:
            uppers = [default_calibration_upper(s) for s in sensor_specs]
        elif isinstance(upper, (int, float)):
            uppers = [float(upper)] * len(sensor_specs)
        else:
            if len(upper) != len(sensor_specs):
                raise ValueError(
                    f"{len(sensor_specs)} sensors but {len(upper)} "
                    "upper_molar entries")
            uppers = [float(u) for u in upper]
        protocols = [
            default_protocol_for_range(
                u,
                n_blanks=int(spec.get("n_blanks", 5)),
                n_replicates=int(spec.get("n_replicates", 3)))
            for u in uppers]
        return calibration_plan(
            [build_sensor(s) for s in sensor_specs], protocols,
            seed=seed,
            add_noise=bool(spec.get("add_noise", True)),
            step_duration_s=float(spec.get("step_duration_s", 16.0)))

    def run(self, plan: BatchPlan) -> BatchResult:
        """Evaluate the campaign on the vectorized engine path."""
        return run_batch(plan)

    def run_scalar(self, plan: BatchPlan) -> BatchResult:
        """Evaluate the campaign cell-by-cell (equivalence reference)."""
        return engine_core.run_scalar("calibration", plan)

    def summarize(self, result: BatchResult) -> str:
        """Table-2 metrics per sensor (falls back to raw signal stats)."""
        try:
            rows = calibration_results_from_batch(result)
        except ValueError:
            return result.summary()
        return "\n".join(row.summary() for row in rows)

    def example_spec(self) -> dict:
        """A one-sensor glucose calibration."""
        return {"sensors": ["glucose/this-work"],
                "n_blanks": 5, "n_replicates": 3}

    def describe(self) -> str:
        """Spec documentation plus a runnable example."""
        return _describe(self, (
            "  sensors          list of registry sensor ids (required)\n"
            "  upper_molar      staircase upper bound(s) [mol/L] "
            "(default: published range)\n"
            "  n_blanks         blank replicates (default 5)\n"
            "  n_replicates     replicates per standard (default 3)\n"
            "  add_noise        include noise (default true)\n"
            "  step_duration_s  CA step length [s] (default 16)"))


class MonitorWorkload:
    """Streaming wear-time monitoring (:func:`repro.engine.run_monitor`).

    Spec fields (``cohort`` and ``duration_h`` required):

    * ``cohort`` — mapping with ``sensor`` (registry id), ``analyte``
      (physiological-range catalog key) and ``n_patients``, plus
      optional ``wander_sigma_a``, ``enzyme_half_life_s`` and
      ``temperature_k`` (see :func:`repro.engine.cohort`);
    * ``duration_h`` — wear horizon [h];
    * ``sample_period_s`` / ``chunk_samples`` / ``add_noise`` /
      ``spec_tolerance`` / ``keep_traces`` — forwarded to
      :class:`~repro.engine.MonitorPlan`;
    * ``recalibration`` — mapping with ``reference_interval_h``,
      ``tolerance``, ``enabled``.
    """

    name = "monitor"
    plan_type = MonitorPlan

    _ALLOWED = frozenset({"cohort", "duration_h", "sample_period_s",
                          "chunk_samples", "add_noise", "recalibration",
                          "spec_tolerance", "keep_traces"})
    _COHORT_ALLOWED = frozenset({"sensor", "analyte", "n_patients",
                                 "wander_sigma_a", "enzyme_half_life_s",
                                 "temperature_k"})
    _PASSTHROUGH = ("sample_period_s", "chunk_samples", "add_noise",
                    "spec_tolerance", "keep_traces")

    def build_plan(self, spec: Mapping[str, Any],
                   seed: int | None) -> MonitorPlan:
        """Resolve the cohort description into a ``MonitorPlan``."""
        from repro.core.registry import build_sensor, spec_by_id

        _check_keys(spec, self._ALLOWED, {"cohort", "duration_h"},
                    self.name)
        cfg = dict(spec["cohort"])
        _check_keys(cfg, self._COHORT_ALLOWED,
                    {"sensor", "analyte", "n_patients"}, "monitor cohort")
        sensor = build_sensor(spec_by_id(cfg.pop("sensor")))
        channels = cohort(sensor, cfg.pop("analyte"),
                          int(cfg.pop("n_patients")), **cfg)
        kwargs: dict[str, Any] = {
            key: spec[key] for key in self._PASSTHROUGH if key in spec}
        if "recalibration" in spec:
            kwargs["recalibration"] = _recalibration_from(
                spec["recalibration"])
        return MonitorPlan(channels=channels,
                           duration_h=float(spec["duration_h"]),
                           seed=seed, **kwargs)

    def run(self, plan: MonitorPlan) -> MonitorResult:
        """Stream the cohort on the chunked vectorized path."""
        return run_monitor(plan)

    def run_scalar(self, plan: MonitorPlan) -> MonitorResult:
        """Stream the cohort day-by-day (equivalence reference)."""
        return engine_core.run_scalar("monitor", plan)

    def summarize(self, result: MonitorResult) -> str:
        """Cohort MARD / time-in-spec summary."""
        return result.summary()

    def example_spec(self) -> dict:
        """A two-day, four-patient glucose wear simulation."""
        return {
            "cohort": {"sensor": "glucose/this-work", "analyte": "glucose",
                       "n_patients": 4, "wander_sigma_a": 2e-9},
            "duration_h": 48.0,
            "sample_period_s": 300.0,
            "keep_traces": False,
        }

    def describe(self) -> str:
        """Spec documentation plus a runnable example."""
        return _describe(self, (
            "  cohort           {sensor, analyte, n_patients, "
            "wander_sigma_a?, enzyme_half_life_s?, temperature_k?} "
            "(required)\n"
            "  duration_h       wear horizon [h] (required)\n"
            "  sample_period_s  reading cadence [s] (default 300)\n"
            "  chunk_samples    vectorization block size (default 4096)\n"
            "  add_noise        include noise (default true)\n"
            "  recalibration    {reference_interval_h, tolerance, enabled}\n"
            "  spec_tolerance   in-spec relative error bound (default 0.2)\n"
            "  keep_traces      store full traces (default true)"))


class EstimationWorkload:
    """Cohort concentration reconstruction (:func:`repro.engine.run_estimation`).

    Spec fields: everything the ``monitor`` workload accepts (the wear
    simulation whose currents are inverted; ``keep_traces`` is forced on
    — the filter consumes the per-sample readings), plus:

    * ``smooth`` — also run the RTS smoothing pass (default true);
    * ``interval_level`` — nominal credible level of the reported bands
      (default 0.95).
    """

    name = "estimation"
    plan_type = EstimationPlan

    _OWN = frozenset({"smooth", "interval_level"})

    def build_plan(self, spec: Mapping[str, Any],
                   seed: int | None) -> EstimationPlan:
        """Resolve the wear spec through the monitor adapter, then wrap."""
        _check_keys(spec, MonitorWorkload._ALLOWED | self._OWN,
                    {"cohort", "duration_h"}, self.name)
        monitor_spec = {key: value for key, value in spec.items()
                       if key not in self._OWN}
        # The filter needs every reading: a keep_traces=False monitor
        # spec would fail in EstimationPlan anyway, so default it on.
        monitor_spec.setdefault("keep_traces", True)
        kwargs: dict[str, Any] = {
            key: spec[key] for key in self._OWN if key in spec}
        return EstimationPlan(
            monitor=MONITOR.build_plan(monitor_spec, seed), **kwargs)

    def run(self, plan: EstimationPlan) -> EstimationResult:
        """Reconstruct the cohort on the vectorized filter path."""
        return run_estimation(plan)

    def run_scalar(self, plan: EstimationPlan) -> EstimationResult:
        """Reconstruct channel by channel (equivalence reference)."""
        return engine_core.run_scalar("estimation", plan)

    def summarize(self, result: EstimationResult) -> str:
        """Reconstruction accuracy + interval-coverage summary."""
        return result.summary()

    def example_spec(self) -> dict:
        """A one-day, four-patient glucose reconstruction."""
        return {
            "cohort": {"sensor": "glucose/this-work", "analyte": "glucose",
                       "n_patients": 4, "wander_sigma_a": 2e-9},
            "duration_h": 24.0,
            "sample_period_s": 600.0,
            "smooth": True,
        }

    def describe(self) -> str:
        """Spec documentation plus a runnable example."""
        return _describe(self, (
            "  cohort           {sensor, analyte, n_patients, ...} "
            "(required; as in the monitor workload)\n"
            "  duration_h       wear horizon [h] (required)\n"
            "  sample_period_s  reading cadence [s] (default 300)\n"
            "  recalibration    {reference_interval_h, tolerance, enabled}\n"
            "  smooth           also run the RTS smoother (default true)\n"
            "  interval_level   credible level of the bands (default 0.95)\n"
            "  (plus chunk_samples, add_noise, spec_tolerance as in the\n"
            "   monitor workload; keep_traces is forced on)"))


def _controller_from(drug: DrugSpec,
                     cfg: Mapping[str, Any]) -> DosingController:
    """Build a dosing controller from its spec mapping.

    ``kind`` selects the :mod:`repro.therapy` controller; doses may be
    given in moles or (``*_mg``) in the drug's prescribed mass, and the
    target trough / Bayesian prior default to the drug catalog entry.
    """
    if "kind" not in cfg:
        raise ValueError("controller spec needs a 'kind' "
                         "(fixed | proportional | bayesian)")
    kind = cfg["kind"]
    params = {key: value for key, value in cfg.items() if key != "kind"}
    if kind == "fixed":
        # No target key here: a fixed regimen ignores feedback by
        # design, so accepting a target would silently discard it.
        _check_keys(params, {"dose_mol", "dose_mg"}, (), "fixed controller")
        if ("dose_mol" in params) == ("dose_mg" in params):
            raise ValueError("fixed controller needs exactly one of "
                             "dose_mol / dose_mg")
        dose = (params["dose_mol"] if "dose_mol" in params
                else drug.dose_mol_from_mg(params["dose_mg"]))
        return FixedRegimenController(dose_mol=float(dose))
    target = params.pop("target_trough_molar",
                        drug.window.target_trough_molar)
    if kind == "proportional":
        _check_keys(params,
                    {"initial_dose_mol", "initial_dose_mg", "max_adjust",
                     "dose_min_mol", "dose_max_mol",
                     "trough_floor_fraction"},
                    (), "proportional controller")
        if ("initial_dose_mol" in params) == ("initial_dose_mg" in params):
            raise ValueError("proportional controller needs exactly one "
                             "of initial_dose_mol / initial_dose_mg")
        initial = (params.pop("initial_dose_mol")
                   if "initial_dose_mol" in params
                   else drug.dose_mol_from_mg(
                       params.pop("initial_dose_mg")))
        return ProportionalTroughController(
            initial_dose_mol=float(initial),
            target_trough_molar=float(target), **params)
    if kind == "bayesian":
        _check_keys(params,
                    {"clearance_cv", "observation_sigma_molar",
                     "initial_dose_mol", "initial_dose_mg",
                     "dose_min_mol", "dose_max_mol",
                     "n_grid", "grid_span_sd"},
                    (), "bayesian controller")
        if "initial_dose_mol" in params and "initial_dose_mg" in params:
            raise ValueError("bayesian controller takes at most one of "
                             "initial_dose_mol / initial_dose_mg")
        if "initial_dose_mg" in params:
            params["initial_dose_mol"] = drug.dose_mol_from_mg(
                params.pop("initial_dose_mg"))
        return BayesianTroughController(
            prior=drug.typical_model(),
            target_trough_molar=float(target), **params)
    raise ValueError(f"unknown controller kind {kind!r} "
                     "(fixed | proportional | bayesian)")


class TherapyWorkload:
    """Closed-loop therapy courses (:func:`repro.engine.run_therapy`).

    Spec fields (``drug``, ``n_patients``, ``cohort_seed``,
    ``controller`` and ``n_doses`` required):

    * ``drug`` — drug catalog name (``"cyclosporine"`` /
      ``"cyclophosphamide"``); wires in the registry sensor, the
      therapeutic window and the population PK prior;
    * ``n_patients`` / ``cohort_seed`` — the treated virtual cohort is
      ``drug.population.sample(n_patients, seed=cohort_seed)``: the
      *population* seed is part of the artifact, separate from the
      scenario seed that drives measurement noise;
    * ``controller`` — mapping with ``kind`` (``fixed`` /
      ``proportional`` / ``bayesian``) plus kind-specific parameters
      (doses in ``*_mol`` or prescribed-mass ``*_mg``); target trough
      and Bayesian prior default to the drug catalog entry;
    * ``n_doses`` / ``dose_interval_h`` / ``route`` /
      ``infusion_duration_h`` / ``sample_period_s`` / ``chunk_samples``
      / ``add_noise`` / ``keep_traces`` /
      ``process_noise_sigma_molar`` / ``process_noise_tau_h`` /
      ``wander_sigma_a`` / ``wander_tau_h`` / ``filter_troughs`` /
      ``filter_process_sigma_molar`` — forwarded to
      :class:`~repro.engine.TherapyPlan` (``filter_troughs`` hands the
      controller Kalman-filtered trough estimates with variances);
    * ``recalibration`` — mapping with ``reference_interval_h``,
      ``tolerance``, ``enabled``.
    """

    name = "therapy"
    plan_type = TherapyPlan

    _ALLOWED = frozenset({
        "drug", "n_patients", "cohort_seed", "controller", "n_doses",
        "dose_interval_h", "route", "infusion_duration_h",
        "sample_period_s", "chunk_samples", "add_noise", "keep_traces",
        "recalibration", "process_noise_sigma_molar",
        "process_noise_tau_h", "wander_sigma_a", "wander_tau_h",
        "filter_troughs", "filter_process_sigma_molar"})
    _PASSTHROUGH = ("dose_interval_h", "infusion_duration_h",
                    "sample_period_s", "chunk_samples", "add_noise",
                    "keep_traces", "process_noise_sigma_molar",
                    "process_noise_tau_h", "wander_sigma_a",
                    "wander_tau_h", "filter_troughs",
                    "filter_process_sigma_molar")

    def build_plan(self, spec: Mapping[str, Any],
                   seed: int | None) -> TherapyPlan:
        """Resolve drug catalog + controller spec into a ``TherapyPlan``."""
        _check_keys(spec, self._ALLOWED,
                    {"drug", "n_patients", "cohort_seed", "controller",
                     "n_doses"}, self.name)
        drug = drug_by_name(spec["drug"])
        treated = drug.population.sample(int(spec["n_patients"]),
                                         seed=int(spec["cohort_seed"]))
        kwargs: dict[str, Any] = {
            key: spec[key] for key in self._PASSTHROUGH if key in spec}
        if "route" in spec:
            kwargs["route"] = Route(spec["route"])
        if "recalibration" in spec:
            kwargs["recalibration"] = _recalibration_from(
                spec["recalibration"])
        return TherapyPlan.for_drug(
            drug, cohort=treated,
            controller=_controller_from(drug, spec["controller"]),
            n_doses=int(spec["n_doses"]), seed=seed, **kwargs)

    def run(self, plan: TherapyPlan) -> TherapyResult:
        """Close the loop on the chunked vectorized path."""
        return run_therapy(plan)

    def run_scalar(self, plan: TherapyPlan) -> TherapyResult:
        """Close the loop per patient (equivalence reference)."""
        return engine_core.run_scalar("therapy", plan)

    def summarize(self, result: TherapyResult) -> str:
        """Window metrics plus the phenotype breakdown."""
        return result.summary()

    def example_spec(self) -> dict:
        """A short Bayesian-dosed cyclosporine course."""
        return {
            "drug": "cyclosporine",
            "n_patients": 8,
            "cohort_seed": 7,
            "controller": {"kind": "bayesian"},
            "n_doses": 4,
            "dose_interval_h": 12.0,
            "keep_traces": False,
        }

    def describe(self) -> str:
        """Spec documentation plus a runnable example."""
        return _describe(self, (
            "  drug             drug catalog name (required)\n"
            "  n_patients       treated cohort size (required)\n"
            "  cohort_seed      population sampling seed (required)\n"
            "  controller       {kind: fixed|proportional|bayesian, ...} "
            "(required)\n"
            "  n_doses          administrations in the course (required)\n"
            "  dose_interval_h  time between doses [h] (default 12)\n"
            "  route            oral | iv_bolus | infusion (default oral)\n"
            "  sample_period_s  reading cadence [s] (default 900)\n"
            "  recalibration    {reference_interval_h, tolerance, enabled}\n"
            "  keep_traces      store full traces (default true)\n"
            "  (plus chunk_samples, add_noise, infusion_duration_h,\n"
            "   process_noise_*, wander_* as in TherapyPlan)"))


#: The built-in workload instances, registered at import time.
CALIBRATION = register_workload(CalibrationWorkload())
MONITOR = register_workload(MonitorWorkload())
THERAPY = register_workload(TherapyWorkload())
ESTIMATION = register_workload(EstimationWorkload())
