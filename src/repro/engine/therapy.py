"""Closed-loop therapy engine: dose -> PK -> sensor -> controller -> dose.

The third workload class of the engine, and the one the paper's title
promises: *personalized medicine*.  A cohort of virtual patients
(:mod:`repro.pk.population`) is dosed on a shared regimen grid; between
administrations their true drug level evolves by closed-form
pharmacokinetic superposition (:mod:`repro.pk`), the deployed CYP sensor
measures it through the monitor's shared wear front end (drift,
wander, chain noise, rails/ADC — :func:`repro.engine.monitor.sense_chunk`)
and optional online recalibration, and at
every dose boundary a :mod:`repro.therapy` controller turns the readout
history into the next dose, per patient.

Execution model (mirrors PR 2's monitor): the cohort advances through
the regimen as chunked ``(n_patients, chunk_samples)`` array blocks;
dose boundaries and recalibration references split chunks at absolute
sample indices, so results are chunk-size-invariant.  Determinism
contract: three generator streams per patient (process noise, baseline
wander, measurement noise) spawned from the plan seed and consumed
strictly sequentially — results depend only on ``(seed, patient,
sample index)``, never on chunking.  A scalar per-patient reference
(``run_scalar("therapy", plan)``) replays the same streams one sample
at a time and agrees to <= 1e-9 (gated, with the >= 5x speedup floor,
by the shared execution-core contract suite and
``benchmarks/bench_core.py``).

Quickstart::

    from repro.engine.therapy import TherapyPlan, run_therapy
    from repro.pk import CYCLOSPORINE
    from repro.therapy import BayesianTroughController

    cohort = CYCLOSPORINE.population.sample(n_patients=16, seed=7)
    plan = TherapyPlan.for_drug(
        CYCLOSPORINE, cohort=cohort,
        controller=BayesianTroughController(
            prior=CYCLOSPORINE.typical_model(),
            target_trough_molar=CYCLOSPORINE.window.target_trough_molar),
        n_doses=6, seed=7)
    print(run_therapy(plan).summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.bio.matrix import SERUM
from repro.core.longterm import DriftBudget, one_point_recalibration
from repro.core.sensor import Biosensor
from repro.engine.core import (
    Check,
    KernelSet,
    PlanBase,
    Segment,
    execute,
    register_kernels,
    require_at_least,
    require_non_negative,
    require_positive,
    uniform_segments,
)
from repro.engine.monitor import (
    STREAMS_PER_ROW,
    WEAR_TRACES,
    RecalibrationPolicy,
    WearParams,
    WearSchedule,
    estimate_chunk_with_recalibration,
    init_wear_state,
    sense_chunk,
)
from repro.enzymes.stability import EnzymeStability
from repro.inference.kalman import KalmanState, kalman_predict, kalman_update
from repro.inference.observation import (
    observation_variance_a2,
    rail_censor_level_a,
    response_linearization,
)
from repro.pk.dosing import concentration_from_doses
from repro.pk.drugs import DrugSpec, TherapeuticWindow
from repro.pk.models import Route
from repro.pk.population import CYPPhenotype, PatientCohort
from repro.rng import spawn_generators
from repro.signal.drift import ou_process_batch
from repro.therapy.controllers import (
    ControllerObservation,
    DosingController,
    RegimenSpec,
)
from repro.therapy.metrics import trough_abs_rel_error

#: Dose boundaries must land on the sample grid within this relative
#: tolerance for trough readouts to align with administrations.
_GRID_ALIGNMENT_RTOL = 1e-9


def _default_budget() -> DriftBudget:
    """Serum wear at body temperature, two-week enzyme half-life."""
    return DriftBudget(
        stability=EnzymeStability(half_life_s=2 * 7 * 24 * 3600.0),
        matrix=SERUM,
        temperature_k=310.15)


@dataclass(frozen=True)
class TherapyPlan(WearSchedule, PlanBase):
    """Declarative description of one closed-loop therapy course.

    Attributes:
        cohort: the treated virtual patients (PK truth).
        sensor: the deployed biosensor design, shared by the cohort.
        controller: the dosing policy closing the loop.
        window: therapeutic window the course is scored against.
        n_doses: administrations in the course, >= 1.
        dose_interval_h: time between administrations [h]; must be an
            integer number of sample periods so troughs land on the
            sample grid.
        route: administration route shared by the course.
        infusion_duration_h: infusion duration [h] (INFUSION only).
        sample_period_s: sensor reading cadence [s].
        chunk_samples: samples advanced per vectorized block; purely a
            memory/throughput knob — results are chunk-size-invariant.
        seed: root seed of the per-patient generator streams.
        add_noise: include every stochastic component (process noise,
            wander, instrument noise); disable for deterministic runs.
        budget: sensor sensitivity-drift model over the course.
        recalibration: online one-point re-fit policy against reference
            lab draws.  Short courses may never reach the reference
            interval — the explicit zero-recalibration path.
        process_noise_sigma_molar: stationary RMS of the intra-patient
            physiological (process) noise riding on the PK truth
            [mol/L].
        process_noise_tau_h: correlation time of that noise [h].
        wander_sigma_a: per-patient baseline-wander RMS [A].
        wander_tau_h: correlation time of the wander [h].
        filter_troughs: run the online trough filter — an extended
            Kalman filter (:mod:`repro.inference.kalman`, local-level
            drug state + the known wander model, relinearized through
            the sensor's actual response) over the measured currents —
            and hand the controller its posterior trough means *and
            variances* instead of the raw linear readouts.
        filter_process_sigma_molar: per-step random-walk sigma of the
            trough filter's drug state [mol/L]; ``None`` derives the
            default from the therapeutic window (5 % of the target
            trough per sample), covering PK slew without tracking the
            measurement noise.
        keep_traces: store full per-sample traces on the result.
    """

    cohort: PatientCohort
    sensor: Biosensor
    controller: DosingController
    window: TherapeuticWindow
    n_doses: int
    dose_interval_h: float = 12.0
    route: Route = Route.ORAL
    infusion_duration_h: float = 0.0
    sample_period_s: float = 900.0
    chunk_samples: int = 4096
    seed: int | None = None
    add_noise: bool = True
    budget: DriftBudget = field(default_factory=_default_budget)
    recalibration: RecalibrationPolicy = field(
        default_factory=lambda: RecalibrationPolicy(
            reference_interval_h=24.0))
    process_noise_sigma_molar: float = 0.0
    process_noise_tau_h: float = 2.0
    wander_sigma_a: float = 0.0
    wander_tau_h: float = 6.0
    filter_troughs: bool = False
    filter_process_sigma_molar: float | None = None
    keep_traces: bool = True

    def validate(self) -> None:
        """Field-level invariants, in the shared ``PlanBase`` wording."""
        require_at_least("n_doses", self.n_doses, 1)
        require_positive("dose_interval_h", self.dose_interval_h)
        require_positive("sample_period_s", self.sample_period_s)
        require_at_least("chunk_samples", self.chunk_samples, 1)
        ratio = self.dose_interval_h * 3600.0 / self.sample_period_s
        if abs(ratio - round(ratio)) > _GRID_ALIGNMENT_RTOL * ratio:
            raise ValueError(
                "dose interval must be an integer number of sample "
                f"periods (got {ratio} samples per interval)")
        if round(ratio) < 1:
            raise ValueError("dose interval shorter than a sample period")
        if self.route is Route.INFUSION:
            if self.infusion_duration_h <= 0:
                raise ValueError("infusions need a duration > 0")
            if self.infusion_duration_h > self.dose_interval_h:
                raise ValueError("infusion longer than the dose interval")
        elif self.infusion_duration_h != 0.0:
            raise ValueError("duration applies to infusions only")
        self.validate_schedule()
        require_non_negative("process_noise_sigma_molar",
                             self.process_noise_sigma_molar)
        require_positive("process_noise_tau_h", self.process_noise_tau_h)
        require_non_negative("wander_sigma_a", self.wander_sigma_a)
        require_positive("wander_tau_h", self.wander_tau_h)
        if (self.filter_process_sigma_molar is not None
                and self.filter_process_sigma_molar <= 0):
            raise ValueError("filter process sigma must be > 0")

    @classmethod
    def for_drug(cls, drug: DrugSpec, cohort: PatientCohort,
                 controller: DosingController, n_doses: int,
                 **overrides) -> "TherapyPlan":
        """Build a plan from a catalog drug: sensor + window wired in.

        The drug's registry sensor is composed and its therapeutic
        window adopted; every other field accepts overrides.

        Args:
            drug: catalog entry (window, population, sensor link).
            cohort: the treated cohort (usually
                ``drug.population.sample(...)``).
            controller: the dosing policy.
            n_doses: administrations in the course.
            **overrides: any other :class:`TherapyPlan` field.

        Returns:
            The composed plan.
        """
        # Imported here: the registry composes sensors out of half the
        # library, and the plan only needs it for this convenience.
        from repro.core.registry import build_sensor, spec_by_id

        if "sensor" not in overrides:
            overrides["sensor"] = build_sensor(spec_by_id(drug.sensor_id))
        overrides.setdefault("window", drug.window)
        return cls(cohort=cohort,
                   controller=controller,
                   n_doses=n_doses,
                   **overrides)

    @property
    def n_patients(self) -> int:
        """Cohort size."""
        return self.cohort.n_patients

    @property
    def samples_per_interval(self) -> int:
        """Sensor readings per dosing interval."""
        return int(round(self.dose_interval_h * 3600.0
                         / self.sample_period_s))

    @property
    def n_samples(self) -> int:
        """Total readings over the whole course."""
        return self.n_doses * self.samples_per_interval

    @property
    def duration_h(self) -> float:
        """Course length [h] (through the last interval's trough)."""
        return self.n_doses * self.dose_interval_h

    @property
    def dose_times_h(self) -> np.ndarray:
        """Administration times [h], shape ``(n_doses,)``."""
        return np.arange(self.n_doses) * self.dose_interval_h

    @property
    def regimen(self) -> RegimenSpec:
        """The dosing grid handed to the controller."""
        return RegimenSpec(
            dose_interval_h=self.dose_interval_h,
            n_doses=self.n_doses,
            route=self.route,
            infusion_duration_h=self.infusion_duration_h)

    @property
    def trough_filter_step_sigma_molar(self) -> float:
        """Per-step random-walk sigma of the trough filter [mol/L].

        The explicit override when configured, otherwise 5 % of the
        therapeutic window's target trough per sample — large enough to
        track PK absorption/elimination slew between readings, small
        enough that the filter still averages measurement noise down.
        """
        if self.filter_process_sigma_molar is not None:
            return self.filter_process_sigma_molar
        return 0.05 * self.window.target_trough_molar

    def wear_params(self) -> WearParams:
        """Per-patient parameters of the shared sensing front end: every
        patient wears a copy of one sensor under one drift budget."""
        sensor = self.sensor
        row = SimpleNamespace(
            sensor=sensor, budget=self.budget,
            wander_sigma_a=self.wander_sigma_a,
            wander_tau_h=self.wander_tau_h,
            day0_slope_a_per_molar=sensor.expected_slope_a_per_molar(),
            day0_intercept_a=sensor.background_current_a)
        return WearParams.from_rows([row] * self.n_patients)


@dataclass(frozen=True)
class TherapyResult:
    """Evaluated therapy course: doses given, windows held, per patient.

    Attributes:
        plan: the course that produced these numbers.
        doses_mol: administered doses, ``(n_patients, n_doses)``.
        trough_true_molar: true level at each interval end,
            ``(n_patients, n_doses)``.
        trough_estimated_molar: the sensor's trough readouts, same
            shape — what the controller actually saw.
        time_in_range: fraction of readings inside the therapeutic
            window, ``(n_patients,)``.
        fraction_below / fraction_above: sub-therapeutic and toxic
            fractions, ``(n_patients,)``.
        trough_abs_rel_error: mean ``|trough - target| / target`` over
            the *controlled* intervals (the first trough, which no
            controller can influence, is excluded), ``(n_patients,)``.
        overdose_exposure_molar_h: toxic exposure integral above the
            window ceiling, ``(n_patients,)``.
        n_recalibrations: accepted one-point re-fits per patient.
        trough_variance_molar2: the trough filter's posterior variances
            per readout, ``(n_patients, n_doses)`` — what the
            variance-aware controller weighted by; ``None`` unless
            ``plan.filter_troughs``.
        time_h: sample times [h] (``None`` unless ``plan.keep_traces``).
        true_concentration_molar / estimated_concentration_molar:
            ``(n_patients, n_samples)`` traces (``None`` unless
            ``plan.keep_traces``).
        measured_current_a: digitized readings [A] (``None`` unless
            ``plan.keep_traces``).
    """

    plan: TherapyPlan
    doses_mol: np.ndarray
    trough_true_molar: np.ndarray
    trough_estimated_molar: np.ndarray
    time_in_range: np.ndarray
    fraction_below: np.ndarray
    fraction_above: np.ndarray
    trough_abs_rel_error: np.ndarray
    overdose_exposure_molar_h: np.ndarray
    n_recalibrations: np.ndarray
    trough_variance_molar2: np.ndarray | None = field(
        default=None, repr=False)
    time_h: np.ndarray | None = field(default=None, repr=False)
    true_concentration_molar: np.ndarray | None = field(
        default=None, repr=False)
    estimated_concentration_molar: np.ndarray | None = field(
        default=None, repr=False)
    measured_current_a: np.ndarray | None = field(default=None, repr=False)

    def patient_summary(self, index: int) -> str:
        """One-line outcome for one patient."""
        patient = self.plan.cohort.patients[index]
        return (
            f"{patient.patient_id} [{patient.phenotype.value}]: "
            f"in-range {self.time_in_range[index] * 100:.0f} %, "
            f"trough error {self.trough_abs_rel_error[index] * 100:.0f} %, "
            f"last dose {self.doses_mol[index, -1] * 1e6:.0f} umol")

    def phenotype_summary(self) -> str:
        """Outcome stratified by CYP phenotype — the personalization
        story in four lines."""
        lines = []
        for phenotype in CYPPhenotype:
            mask = self.plan.cohort.phenotype_mask(phenotype)
            if not np.any(mask):
                continue
            lines.append(
                f"{phenotype.value:>12}: n={int(np.sum(mask)):3d}  "
                f"in-range {float(np.mean(self.time_in_range[mask])) * 100:5.1f} %  "
                f"trough err {float(np.mean(self.trough_abs_rel_error[mask])) * 100:5.1f} %  "
                f"toxic {float(np.mean(self.fraction_above[mask])) * 100:4.1f} %")
        return "\n".join(lines)

    def summary(self) -> str:
        """Cohort-level outcome plus the phenotype breakdown."""
        plan = self.plan
        head = (
            f"{plan.n_patients} patients x {plan.n_doses} doses "
            f"every {plan.dose_interval_h:.0f} h "
            f"({plan.n_samples} readings over {plan.duration_h:.0f} h): "
            f"in-range {float(np.mean(self.time_in_range)) * 100:.1f} %, "
            f"trough error "
            f"{float(np.mean(self.trough_abs_rel_error)) * 100:.1f} %, "
            f"{int(np.sum(self.n_recalibrations))} recalibrations")
        return "\n".join([head, self.phenotype_summary()])

    def summary_row(self) -> dict:
        """Flat scalar metrics of the therapy course (JSON-serializable).

        The tabular-export half of the shared result contract
        (:class:`repro.scenarios.ResultProtocol`).
        """
        return {
            "workload": "therapy",
            "n_patients": self.plan.n_patients,
            "n_doses": self.plan.n_doses,
            "n_samples": self.plan.n_samples,
            "duration_h": float(self.plan.duration_h),
            "seed": self.plan.seed,
            "cohort_time_in_range": float(np.mean(self.time_in_range)),
            "cohort_fraction_above": float(np.mean(self.fraction_above)),
            "cohort_trough_abs_rel_error": float(
                np.mean(self.trough_abs_rel_error)),
            "total_overdose_exposure_molar_h": float(
                np.sum(self.overdose_exposure_molar_h)),
            "n_recalibrations": int(np.sum(self.n_recalibrations)),
        }

    def to_dict(self, include_traces: bool = False) -> dict:
        """JSON-serializable export of the evaluated therapy course.

        Args:
            include_traces: also include the per-sample true/estimated
                concentration and measured-current traces (only possible
                when the plan kept them; off by default).

        Returns:
            ``summary_row()`` plus one outcome entry per patient with
            the administered doses and trough history.
        """
        patients = [{
            "patient_id": patient.patient_id,
            "phenotype": patient.phenotype.value,
            "time_in_range": float(self.time_in_range[i]),
            "fraction_below": float(self.fraction_below[i]),
            "fraction_above": float(self.fraction_above[i]),
            "trough_abs_rel_error": float(self.trough_abs_rel_error[i]),
            "overdose_exposure_molar_h": float(
                self.overdose_exposure_molar_h[i]),
            "n_recalibrations": int(self.n_recalibrations[i]),
            "doses_mol": self.doses_mol[i].tolist(),
            "trough_true_molar": self.trough_true_molar[i].tolist(),
            "trough_estimated_molar": (
                self.trough_estimated_molar[i].tolist()),
            **({"trough_variance_molar2":
                self.trough_variance_molar2[i].tolist()}
               if self.trough_variance_molar2 is not None else {}),
        } for i, patient in enumerate(self.plan.cohort.patients)]
        data = {**self.summary_row(), "patients": patients}
        if include_traces and self.time_h is not None:
            data.update({name: getattr(self, name).tolist()
                         for name in WEAR_TRACES})
        return data


def _observation(plan: TherapyPlan, k: int, doses: np.ndarray,
                 trough_estimates: np.ndarray,
                 trough_variances: np.ndarray | None = None,
                 ) -> ControllerObservation:
    """The controller's view right before dose ``k`` (k >= 1)."""
    interval_h = plan.dose_interval_h
    return ControllerObservation(
        regimen=plan.regimen,
        interval_index=k,
        time_h=k * interval_h,
        dose_times_h=np.arange(k) * interval_h,
        doses_mol=doses[:, :k],
        trough_times_h=(np.arange(k) + 1.0) * interval_h,
        trough_estimates_molar=trough_estimates[:, :k],
        trough_variances_molar2=(None if trough_variances is None
                                 else trough_variances[:, :k]),
    )


@dataclass(frozen=True)
class _TroughFilter:
    """Constants of the online trough filter, derived once per run.

    ``q_signal`` is the drug state's random-walk innovation variance
    (PK slew allowance plus the true process-noise innovation);
    ``a_wander`` / ``q_wander`` the wander AR(1) exactly as simulated;
    ``r`` the per-reading variance including quantization; readings at
    or beyond ``censor_level_a`` are rail-censored.  The sensing terms
    are row 0 of the shared :class:`WearParams`: the cohort wears copies
    of one sensor under one drift budget.
    """

    sensor: Biosensor
    q_signal: float
    a_wander: float
    q_wander: float
    r: float
    censor_level_a: float
    decay_rate_per_hour: float
    background_a: float
    baseline_drift_a_per_hour: float

    @classmethod
    def for_plan(cls, plan: TherapyPlan,
                 wear: WearParams) -> "_TroughFilter":
        """The filter constants of ``plan`` with front end ``wear``."""
        dt_s = plan.sample_period_s
        q_signal = plan.trough_filter_step_sigma_molar ** 2
        a_wander = float(np.exp(-dt_s / wear.wander_tau_s[0]))
        if plan.add_noise:
            a_process = float(np.exp(
                -dt_s / (plan.process_noise_tau_h * 3600.0)))
            q_signal += (plan.process_noise_sigma_molar ** 2
                         * (1.0 - a_process ** 2))
            q_wander = (float(wear.wander_sigma_a[0]) ** 2
                        * (1.0 - a_wander ** 2))
        else:
            q_wander = 0.0
        return cls(
            sensor=plan.sensor,
            q_signal=q_signal,
            a_wander=a_wander,
            q_wander=q_wander,
            r=observation_variance_a2(plan.sensor, add_noise=plan.add_noise),
            censor_level_a=rail_censor_level_a(plan.sensor),
            decay_rate_per_hour=float(wear.decay_rate_per_hour[0]),
            background_a=float(wear.background_a[0]),
            baseline_drift_a_per_hour=float(
                wear.baseline_drift_a_per_hour[0]),
        )

    def step(self, state: KalmanState, measured: np.ndarray,
             t_h: float) -> KalmanState:
        """Advance the filter by one reading (vectorized or 1-wide).

        One extended-Kalman step: random-walk predict, relinearize the
        sensor's actual response at the predicted level, update against
        the reading with the front end's drifted gain and baseline,
        skipping rail-censored readings.  The batch path passes the whole
        cohort, the scalar reference single-patient slices.
        """
        state = kalman_predict(state, 1.0, self.q_signal, self.a_wander,
                               self.q_wander)
        c_lin = np.maximum(state.m1, 0.0)
        response, slope = response_linearization(self.sensor, c_lin)
        retention = np.exp(-self.decay_rate_per_hour * t_h)
        baseline = self.background_a + self.baseline_drift_a_per_hour * t_h
        gain = retention * slope
        offset = retention * (response - slope * c_lin) + baseline
        r_k = np.where(np.abs(measured) >= self.censor_level_a, np.inf,
                       self.r)
        return kalman_update(state, measured, gain, offset, r_k)


def run_therapy(plan: TherapyPlan) -> TherapyResult:
    """Run a closed-loop therapy course, chunked and vectorized.

    The engine entry point for the therapy workload.  Per dosing
    interval: the controller fixes the cohort's doses, then the interval
    streams through wear-time as ``(n_patients, chunk)`` blocks — PK
    superposition truth, process noise, drifted faradaic response,
    baseline + wander, chain noise, rails and quantization, linear
    estimation, optional one-point recalibration at reference draws.

    Returns:
        A :class:`TherapyResult` with per-patient window metrics (and
        full traces when ``plan.keep_traces``).

    Determinism: with a fixed ``plan.seed`` the result is reproducible
    and independent of ``plan.chunk_samples``; the scalar reference
    agrees to <= 1e-9 (gated by the shared contract suite,
    ``tests/engine/test_core_contract.py``).
    """
    return execute(THERAPY_KERNELS, plan)


def _init_therapy_state(plan: TherapyPlan) -> SimpleNamespace:
    """Carry state threaded through the therapy intervals and chunks:
    the shared front-end state plus PK parameters, the trough filter,
    the dose history, and the window accumulators."""
    n = plan.n_patients
    state = init_wear_state(
        plan,
        pk=plan.cohort.params(),
        process_tau_s=plan.process_noise_tau_h * 3600.0,
        doses=np.zeros((n, plan.n_doses)),
        trough_true=np.zeros((n, plan.n_doses)),
        trough_est=np.zeros((n, plan.n_doses)),
        trough_var=(np.zeros((n, plan.n_doses))
                    if plan.filter_troughs else None),
        filter_state=(KalmanState.zeros(n)
                      if plan.filter_troughs else None),
        dose_times=None,
        in_range_count=np.zeros(n),
        below_count=np.zeros(n),
        above_count=np.zeros(n),
        over_sum=np.zeros(n),
        n_recals=np.zeros(n, dtype=int),
    )
    state.trough_filter = (_TroughFilter.for_plan(plan, state.wear)
                           if plan.filter_troughs else None)
    return state


def _begin_interval(plan: TherapyPlan, state: SimpleNamespace,
                    segment: Segment) -> None:
    """Fix the cohort's doses for interval ``segment.index``: the
    controller turns the trough history into the next administration."""
    k = segment.index
    doses = state.doses
    if k == 0:
        doses[:, 0] = plan.controller.initial_doses(
            plan.n_patients, plan.regimen)
    else:
        doses[:, k] = plan.controller.next_doses(
            _observation(plan, k, doses, state.trough_est,
                         state.trough_var))
    if np.any(~np.isfinite(doses[:, k])) or np.any(doses[:, k] < 0):
        raise ValueError(
            f"controller produced an invalid dose at interval {k}")
    state.dose_times = plan.dose_times_h[:k + 1]


def _therapy_chunk(plan: TherapyPlan, state: SimpleNamespace,
                   segment: Segment, start: int, stop: int) -> None:
    """Advance the cohort by one ``(n_patients, chunk)`` block of
    interval ``segment.index`` (trough readout on the last chunk)."""
    k = segment.index
    t_h = plan.sample_times_h(start, stop)

    # --- truth: PK superposition + physiological noise -------
    c = concentration_from_doses(
        t_h, state.dose_times, state.doses[:, :k + 1], state.pk,
        plan.route, plan.infusion_duration_h)
    if plan.add_noise:
        c_noise, state.truth_state = ou_process_batch(
            stop - start, plan.sample_period_s,
            state.process_tau_s, plan.process_noise_sigma_molar,
            state.truth_state, rngs=state.truth_rngs)
        c = c + c_noise
    c = np.maximum(c, 0.0)

    measured = sense_chunk(plan, state, c, t_h)

    # --- estimation + online recalibration, segment-wise -----
    estimates, state.slopes, events = estimate_chunk_with_recalibration(
        measured, c, start, stop, state.slopes, state.intercepts,
        state.ref_every, plan.recalibration.tolerance,
        state.policy_active)
    for _, accepted in events:
        state.n_recals += accepted

    # --- online trough filter (optional) ----------------------
    if plan.filter_troughs:
        for j in range(stop - start):
            state.filter_state = state.trough_filter.step(
                state.filter_state, measured[:, j], float(t_h[j]))

    # --- window accounting -----------------------------------
    state.in_range_count += np.sum(
        (c >= plan.window.low_molar)
        & (c <= plan.window.high_molar), axis=1)
    state.below_count += np.sum(c < plan.window.low_molar, axis=1)
    state.above_count += np.sum(c > plan.window.high_molar, axis=1)
    state.over_sum += np.sum(
        np.maximum(c - plan.window.high_molar, 0.0), axis=1)
    if plan.keep_traces:
        state.true_c[:, start:stop] = c
        state.est_c[:, start:stop] = estimates
        state.meas_i[:, start:stop] = measured
    if stop == segment.stop:
        state.trough_true[:, k] = c[:, -1]
        if plan.filter_troughs:
            state.trough_est[:, k] = np.maximum(
                state.filter_state.m1, 0.0)
            state.trough_var[:, k] = np.maximum(
                state.filter_state.p11, 0.0)
        else:
            state.trough_est[:, k] = estimates[:, -1]


def _finalize_therapy(plan: TherapyPlan,
                      state: SimpleNamespace) -> TherapyResult:
    """Assemble the :class:`TherapyResult` from the carry state (or the
    scalar reference's accumulators)."""
    n_samples = plan.n_samples
    period_h = plan.sample_period_s / 3600.0
    target = plan.window.target_trough_molar
    skip = 1 if plan.n_doses > 1 else 0
    return TherapyResult(
        plan=plan,
        doses_mol=state.doses,
        trough_true_molar=state.trough_true,
        trough_estimated_molar=state.trough_est,
        time_in_range=state.in_range_count / n_samples,
        fraction_below=state.below_count / n_samples,
        fraction_above=state.above_count / n_samples,
        trough_abs_rel_error=trough_abs_rel_error(
            state.trough_true, target, skip_first=skip),
        overdose_exposure_molar_h=state.over_sum * period_h,
        n_recalibrations=state.n_recals,
        trough_variance_molar2=state.trough_var,
        time_h=plan.sample_times_h(0, n_samples)
        if plan.keep_traces else None,
        true_concentration_molar=state.true_c,
        estimated_concentration_molar=state.est_c,
        measured_current_a=state.meas_i,
    )


def _run_therapy_scalar(plan: TherapyPlan) -> TherapyResult:
    """Per-patient scalar reference: one patient, one sample at a time.

    The historical shape of a therapy simulation — a Python loop over
    every (patient, sample) pair through scalar OU updates, scalar
    digitization and scalar recalibration, with the controller consulted
    per patient on single-patient histories.  Consumes the same
    per-patient generator streams as :func:`run_therapy`, so the two
    paths agree to floating-point reassociation (<= 1e-9, gated by the
    shared contract suite) — which is exactly why the chunked engine
    exists: same physics, >= 5x the throughput.
    """
    wear = plan.wear_params()
    pk = plan.cohort.params()
    n, spi = plan.n_patients, plan.samples_per_interval
    n_samples = plan.n_samples
    rngs = spawn_generators(plan.seed, STREAMS_PER_ROW * n)
    chain = plan.sensor.chain
    dt_s = plan.sample_period_s
    ref_every = plan.reference_every_samples
    policy = plan.recalibration
    policy_active = plan.n_reference_draws > 0
    process_a = np.exp(-dt_s / (plan.process_noise_tau_h * 3600.0))
    process_scale = (plan.process_noise_sigma_molar
                     * np.sqrt(1.0 - process_a ** 2))

    doses = np.zeros((n, plan.n_doses))
    trough_true = np.zeros((n, plan.n_doses))
    trough_est = np.zeros((n, plan.n_doses))
    trough_var = None
    if plan.filter_troughs:
        trough_var = np.zeros((n, plan.n_doses))
        trough_filter = _TroughFilter.for_plan(plan, wear)
    in_range_count = np.zeros(n)
    below_count = np.zeros(n)
    above_count = np.zeros(n)
    over_sum = np.zeros(n)
    n_recals = np.zeros(n, dtype=int)
    if plan.keep_traces:
        true_c = np.empty((n, n_samples))
        est_c = np.empty((n, n_samples))
        meas_i = np.empty((n, n_samples))

    for i in range(n):
        process_rng, wander_rng, measurement_rng = rngs[
            STREAMS_PER_ROW * i:STREAMS_PER_ROW * (i + 1)]
        patient_pk = pk.patient(i)
        slope = float(wear.day0_slope[i])
        intercept = float(wear.day0_intercept[i])
        decay = float(wear.decay_rate_per_hour[i])
        background = float(wear.background_a[i])
        drift = float(wear.baseline_drift_a_per_hour[i])
        measurement_sigma = float(wear.measurement_sigma_a[i])
        wander_a = np.exp(-dt_s / wear.wander_tau_s[i])
        wander_scale = (wear.wander_sigma_a[i]
                        * np.sqrt(1.0 - wander_a ** 2))
        process_state = 0.0
        wander_state = 0.0
        filter_state = (KalmanState.zeros(1) if plan.filter_troughs
                        else None)

        for k in range(plan.n_doses):
            if k == 0:
                doses[i, k] = float(plan.controller.initial_doses(
                    1, plan.regimen)[0])
            else:
                doses[i, k] = float(plan.controller.next_doses(
                    _observation(plan, k, doses[i:i + 1],
                                 trough_est[i:i + 1],
                                 None if trough_var is None
                                 else trough_var[i:i + 1]))[0])
            if not np.isfinite(doses[i, k]) or doses[i, k] < 0:
                raise ValueError(
                    f"controller produced an invalid dose at interval {k}")
            dose_times = plan.dose_times_h[:k + 1]

            for j in range(k * spi, (k + 1) * spi):
                t_h = (j + 1) * dt_s / 3600.0
                c_pk = float(concentration_from_doses(
                    np.array([t_h]), dose_times, doses[i:i + 1, :k + 1],
                    patient_pk, plan.route,
                    plan.infusion_duration_h)[0, 0])
                if plan.add_noise:
                    process_state = (
                        process_a * process_state
                        + process_scale * process_rng.standard_normal())
                c = max(c_pk + process_state, 0.0)
                faradaic = float(plan.sensor.layer.steady_state_current(
                    c, plan.sensor.area_m2))
                retention = float(np.exp(-decay * t_h))
                baseline = background + drift * t_h
                if plan.add_noise:
                    wander_state = (
                        wander_a * wander_state
                        + wander_scale * wander_rng.standard_normal())
                current = retention * faradaic + baseline + wander_state
                if plan.add_noise:
                    current += (measurement_sigma
                                * measurement_rng.standard_normal())
                volts = float(np.clip(current * chain.tia.gain_v_per_a,
                                      -chain.tia.rail_v, chain.tia.rail_v))
                measured = float(chain.adc.convert(volts)[0]
                                 / chain.tia.gain_v_per_a)
                estimate = max(0.0, (measured - intercept) / slope)
                if plan.filter_troughs:
                    filter_state = trough_filter.step(
                        filter_state, np.array([measured]), t_h)
                if policy_active and (j + 1) % ref_every == 0 and c > 0:
                    rel_error = abs(estimate - c) / c
                    if rel_error > policy.tolerance:
                        try:
                            slope = one_point_recalibration(
                                slope, c, measured, intercept)
                            n_recals[i] += 1
                        except ValueError:
                            pass
                in_range_count[i] += (plan.window.low_molar <= c
                                      <= plan.window.high_molar)
                below_count[i] += c < plan.window.low_molar
                above_count[i] += c > plan.window.high_molar
                over_sum[i] += max(c - plan.window.high_molar, 0.0)
                if plan.keep_traces:
                    true_c[i, j] = c
                    est_c[i, j] = estimate
                    meas_i[i, j] = measured
                if j == (k + 1) * spi - 1:
                    trough_true[i, k] = c
                    if plan.filter_troughs:
                        trough_est[i, k] = max(
                            float(filter_state.m1[0]), 0.0)
                        trough_var[i, k] = max(
                            float(filter_state.p11[0]), 0.0)
                    else:
                        trough_est[i, k] = estimate

    keep = plan.keep_traces
    return _finalize_therapy(plan, SimpleNamespace(
        doses=doses, trough_true=trough_true, trough_est=trough_est,
        trough_var=trough_var, in_range_count=in_range_count,
        below_count=below_count, above_count=above_count,
        over_sum=over_sum, n_recals=n_recals,
        true_c=true_c if keep else None, est_c=est_c if keep else None,
        meas_i=meas_i if keep else None))


class TherapyKernels(KernelSet):
    """The closed-loop therapy workload as a kernel set on the core.

    One segment per dose interval: ``begin_segment`` is the controller's
    dose decision (the closed-loop step), chunks stream the interval
    through the wear physics, and the last chunk of each segment takes
    the trough readout.  The carry state threads calibration, OU and
    trough-filter states across both chunk and interval boundaries.
    """

    name = "therapy"
    plan_type = TherapyPlan
    floor_env = "THERAPY_SPEEDUP_FLOOR"

    def compile(self, plan: TherapyPlan):
        """One segment per dose interval, chunked within intervals."""
        return uniform_segments(self.name, plan.n_patients,
                                plan.n_doses, plan.samples_per_interval,
                                plan.chunk_samples)

    def init_state(self, plan: TherapyPlan) -> SimpleNamespace:
        """Generator streams, PK params, calibration and accumulators."""
        return _init_therapy_state(plan)

    def begin_segment(self, plan: TherapyPlan, state,
                      segment: Segment) -> None:
        """Controller dose decision for interval ``segment.index``."""
        _begin_interval(plan, state, segment)

    def run_chunk(self, plan: TherapyPlan, state, segment: Segment,
                  start: int, stop: int) -> None:
        """Advance the cohort across samples ``[start, stop)``."""
        _therapy_chunk(plan, state, segment, start, stop)

    def finalize(self, plan: TherapyPlan, state) -> TherapyResult:
        """Assemble the :class:`TherapyResult`."""
        return _finalize_therapy(plan, state)

    def describe_metrics(self, plan: TherapyPlan,
                         result: TherapyResult) -> dict:
        """Closed-loop health counters: doses administered, doses the
        controller actually changed between consecutive intervals, and
        recalibrations fired on the sensing side."""
        adjusted = np.diff(result.doses_mol, axis=1) != 0.0
        return {
            "doses": int(result.doses_mol.size),
            "doses_adjusted": int(np.sum(adjusted)),
            "recalibrations": int(np.sum(result.n_recalibrations)),
        }

    def run_scalar(self, plan: TherapyPlan) -> TherapyResult:
        """Per-(patient, sample) reference through the scalar APIs."""
        return _run_therapy_scalar(plan)

    def contract_plan(self) -> TherapyPlan:
        """Four cyclosporine patients, three Bayesian-dosed intervals
        with the online trough filter engaged."""
        from repro.pk.drugs import CYCLOSPORINE
        from repro.therapy.controllers import BayesianTroughController

        cohort = CYCLOSPORINE.population.sample(n_patients=4, seed=5)
        return TherapyPlan.for_drug(
            CYCLOSPORINE, cohort=cohort,
            controller=BayesianTroughController(
                prior=CYCLOSPORINE.typical_model(),
                target_trough_molar=(
                    CYCLOSPORINE.window.target_trough_molar),
                observation_sigma_molar=4e-7),
            n_doses=3, dose_interval_h=8.0, sample_period_s=1800.0,
            chunk_samples=7, seed=5, filter_troughs=True,
            process_noise_sigma_molar=1e-7, wander_sigma_a=2e-9)

    def contract_fields(self, result: TherapyResult) -> dict:
        """Doses, troughs, window metrics and the filter posterior."""
        return {
            "doses_mol": Check(result.doses_mol, atol=1e-18, rtol=1e-9),
            "trough_true_molar": Check(result.trough_true_molar,
                                       atol=1e-15, rtol=1e-9),
            "trough_estimated_molar": Check(
                result.trough_estimated_molar, atol=1e-12, rtol=1e-9),
            "trough_variance_molar2": Check(
                result.trough_variance_molar2, atol=1e-24, rtol=1e-9),
            "true_concentration_molar": Check(
                result.true_concentration_molar, atol=1e-15, rtol=1e-9),
            "estimated_concentration_molar": Check(
                result.estimated_concentration_molar, atol=1e-15,
                rtol=1e-9),
            "measured_current_a": Check(
                result.measured_current_a, atol=1e-15),
            "time_in_range": Check(result.time_in_range, atol=1e-12),
            "n_recalibrations": Check(result.n_recalibrations,
                                      exact=True),
        }


#: The registered therapy kernel set (the target of ``run_therapy``).
THERAPY_KERNELS = register_kernels(TherapyKernels())
