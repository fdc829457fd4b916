"""Streaming long-term monitoring engine: cohorts through wear-time.

The batch engine of PR 1 made single-shot calibration campaigns fast;
this module opens the paper's actual workload — *continuous* monitoring
of chronic patients over days-to-weeks of wear — as a second vectorized
workload class.  A cohort of (patient × sensor) channels advances through
wear-time in ``(n_channels, chunk_samples)`` NumPy blocks, composing:

* physiological concentration trajectories
  (:class:`repro.analytes.physiological.ConcentrationTrajectory`) with a
  seedable Ornstein-Uhlenbeck physiological noise component;
* sensitivity drift — enzyme/film degradation (Arrhenius-scaled) and
  matrix fouling via :class:`repro.core.longterm.DriftBudget`;
* additive baseline drift and reference-electrode wander
  (:func:`repro.signal.drift.ou_process_batch`);
* the instrument chain: noise floor, TIA rails and SAR-ADC quantization
  (sensor physics to here is the shared front end, :func:`sense_chunk`);
* online recalibration scheduling — periodic reference samples
  (finger-stick protocol) trigger a one-point re-fit
  (:func:`repro.core.longterm.one_point_recalibration_batch`) whenever
  the reading error exceeds the policy tolerance.

Determinism contract (mirrors :mod:`repro.engine.plan`): every channel
owns three independent generator streams spawned from the plan seed —
trajectory noise, baseline wander, measurement noise — each consumed
strictly sequentially along the sample axis.  Results therefore depend
only on ``(seed, channel position, sample index)``, never on
``chunk_samples``: streaming a week in one block or in 4-sample slivers
produces identical traces.  Recalibration decisions fire at absolute
sample indices, so they are chunk-invariant too.

Quickstart::

    from repro.engine.monitor import MonitorPlan, glucose_cohort, run_monitor

    plan = MonitorPlan(channels=glucose_cohort(n_patients=8),
                       duration_h=7 * 24.0, seed=42)
    result = run_monitor(plan)
    print(result.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from repro.analytes.physiological import ConcentrationTrajectory
from repro.bio.matrix import SERUM
from repro.core.longterm import (
    DriftBudget,
    one_point_recalibration,
    one_point_recalibration_batch,
)
from repro.core.sensor import Biosensor
from repro.engine.core import (
    Check,
    KernelSet,
    PlanBase,
    decode_array,
    decode_rng,
    encode_array,
    encode_rng,
    execute,
    register_kernels,
    require_at_least,
    require_in_open_unit_interval,
    require_keys,
    require_list,
    require_non_empty,
    require_non_negative,
    require_positive,
    require_row_block,
    require_snapshot,
    single_segment,
    snapshot_envelope,
)
from repro.enzymes.stability import EnzymeStability
from repro.rng import spawn_generators
from repro.signal.drift import ou_process_batch

#: Generator streams spawned per row (truth noise, wander, measurement).
STREAMS_PER_ROW = 3

#: Per-sample traces a wear result exports with ``include_traces``.
WEAR_TRACES = ("time_h", "true_concentration_molar",
               "estimated_concentration_molar", "measured_current_a")


@dataclass(frozen=True)
class RecalibrationPolicy:
    """When and how a deployed channel is re-fit in the field.

    Attributes:
        reference_interval_h: cadence of reference measurements [h]
            (finger-stick / spiked-sample availability).
        tolerance: relative reading error at a reference sample beyond
            which a one-point recalibration is applied.
        enabled: disable to monitor open-loop (drift uncorrected).
    """

    reference_interval_h: float = 12.0
    tolerance: float = 0.10
    enabled: bool = True

    def __post_init__(self) -> None:
        require_positive("reference_interval_h", self.reference_interval_h)
        require_in_open_unit_interval("tolerance", self.tolerance)


@dataclass(frozen=True)
class MonitorChannel:
    """One (patient × sensor) channel of a monitoring cohort.

    Attributes:
        patient_id: cohort identity of the wearer.
        sensor: the deployed biosensor.
        trajectory: the patient's concentration course.
        budget: sensitivity-drift model (enzyme decay + fouling) for this
            deployment.
        wander_sigma_a: stationary RMS of the reference-electrode /
            baseline wander [A] (0 disables it).
        wander_tau_h: correlation time of the wander [h].
        slope_a_per_molar: day-0 calibrated slope [A/M]; ``None`` uses
            the sensor's analytic linear-regime slope.
        intercept_a: day-0 calibration intercept [A] the estimator
            subtracts; ``None`` uses the sensor's stationary background
            current.  Pass the fitted intercept when wiring a
            :class:`~repro.core.calibration.CalibrationResult` in.
    """

    patient_id: str
    sensor: Biosensor
    trajectory: ConcentrationTrajectory
    budget: DriftBudget
    wander_sigma_a: float = 0.0
    wander_tau_h: float = 6.0
    slope_a_per_molar: float | None = None
    intercept_a: float | None = None

    def __post_init__(self) -> None:
        require_non_negative("wander_sigma_a", self.wander_sigma_a)
        require_positive("wander_tau_h", self.wander_tau_h)
        if self.slope_a_per_molar is not None:
            require_positive("slope_a_per_molar", self.slope_a_per_molar)

    @property
    def day0_slope_a_per_molar(self) -> float:
        """The slope [A/M] the channel's estimator starts from."""
        if self.slope_a_per_molar is not None:
            return self.slope_a_per_molar
        return self.sensor.expected_slope_a_per_molar()

    @property
    def day0_intercept_a(self) -> float:
        """The intercept [A] the channel's estimator starts from."""
        if self.intercept_a is not None:
            return self.intercept_a
        return self.sensor.background_current_a


class WearSchedule:
    """Sample grid and reference-draw schedule of a wear plan.

    Inherited by :class:`MonitorPlan` and
    :class:`repro.engine.therapy.TherapyPlan`; a plan supplies
    ``sample_period_s``, ``recalibration`` and ``n_samples``.
    """

    def validate_schedule(self) -> None:
        """Reject an enabled reference interval shorter than a sample."""
        if (self.recalibration.enabled
                and self.recalibration.reference_interval_h * 3600.0
                < self.sample_period_s):
            raise ValueError(
                "reference interval shorter than the sample period")

    @property
    def reference_every_samples(self) -> int:
        """Reference-measurement cadence in samples (>= 1)."""
        return max(1, int(round(
            self.recalibration.reference_interval_h * 3600.0
            / self.sample_period_s)))

    @property
    def n_reference_draws(self) -> int:
        """Reference draws that actually fire within the wear horizon.

        Zero when the policy is disabled or the reference interval is
        longer than the wear time: such plans (e.g. a 6 h course with
        12-hourly lab draws) are legal and run open-loop by design.
        """
        if not self.recalibration.enabled:
            return 0
        return self.n_samples // self.reference_every_samples

    def sample_times_h(self, start: int, stop: int) -> np.ndarray:
        """Wear times [h] of the samples in ``[start, stop)``.

        Sample ``k`` is taken at ``(k + 1) * sample_period_s`` — the
        first reading lands one period after the day-0 calibration (and
        in a therapy course the last sample of every dose interval lands
        on the next dose boundary, the trough readout); times depend
        only on the absolute index (chunk-invariance).
        """
        return ((np.arange(start, stop) + 1)
                * (self.sample_period_s / 3600.0))


@dataclass(frozen=True)
class MonitorPlan(WearSchedule, PlanBase):
    """Declarative description of a cohort wear-time simulation.

    Attributes:
        channels: the cohort, one entry per (patient × sensor) channel.
        duration_h: wear horizon [h].
        sample_period_s: monitoring cadence [s] (one reading per period).
        chunk_samples: samples advanced per vectorized block; purely a
            memory/throughput knob — results are chunk-size-invariant.
        seed: root seed for the per-channel generator streams; ``None``
            draws an entropy root (irreproducible, channels still
            mutually independent).
        add_noise: include every stochastic component (physiological
            noise, wander, instrument noise); disable for deterministic
            reference runs.
        recalibration: the online re-fit policy.
        spec_tolerance: relative error bound defining "time in spec"
            (the CGM-style accuracy window, e.g. 0.20 for ±20 %).
        keep_traces: store full per-sample traces on the result (disable
            for long cohorts where only summaries matter).
    """

    channels: tuple[MonitorChannel, ...]
    duration_h: float
    sample_period_s: float = 300.0
    chunk_samples: int = 4096
    seed: int | None = None
    add_noise: bool = True
    recalibration: RecalibrationPolicy = field(
        default_factory=RecalibrationPolicy)
    spec_tolerance: float = 0.20
    keep_traces: bool = True

    def validate(self) -> None:
        """Field-level invariants, in the shared ``PlanBase`` wording."""
        require_non_empty("channel", self.channels)
        require_positive("duration_h", self.duration_h)
        require_positive("sample_period_s", self.sample_period_s)
        require_at_least("chunk_samples", self.chunk_samples, 1)
        require_in_open_unit_interval("spec_tolerance", self.spec_tolerance)
        if self.n_samples < 1:
            raise ValueError("horizon shorter than one sample period")
        self.validate_schedule()

    @property
    def n_channels(self) -> int:
        """Number of (patient × sensor) channels in the cohort."""
        return len(self.channels)

    @property
    def n_samples(self) -> int:
        """Total readings per channel over the wear horizon."""
        return int(self.duration_h * 3600.0 // self.sample_period_s)

    def wear_params(self) -> "WearParams":
        """Per-channel parameters of the shared sensing front end."""
        return WearParams.from_rows(self.channels)


@dataclass(frozen=True)
class MonitorResult:
    """Evaluated wear-time simulation: per-channel accuracy summaries.

    Attributes:
        plan: the simulation that produced these numbers.
        mard: mean absolute relative difference between estimated and
            true concentration per channel (the CGM accuracy metric),
            shape ``(n_channels,)``.
        time_in_spec: fraction of readings whose relative error stays
            within ``plan.spec_tolerance``, shape ``(n_channels,)``.
        n_recalibrations: accepted one-point re-fits per channel.
        recalibration_times_h: the wear times [h] at which each channel
            was re-fit (one tuple per channel).
        final_retention: modeled sensitivity retention at the end of
            wear, shape ``(n_channels,)``.
        final_slope_a_per_molar: the estimator's slope after the last
            re-fit, shape ``(n_channels,)``.
        time_h: sample times [h] (``None`` unless ``plan.keep_traces``).
        true_concentration_molar / estimated_concentration_molar:
            ``(n_channels, n_samples)`` traces (``None`` unless
            ``plan.keep_traces``).
        measured_current_a: digitized readings [A] (``None`` unless
            ``plan.keep_traces``).
    """

    plan: MonitorPlan
    mard: np.ndarray
    time_in_spec: np.ndarray
    n_recalibrations: np.ndarray
    recalibration_times_h: tuple[tuple[float, ...], ...]
    final_retention: np.ndarray
    final_slope_a_per_molar: np.ndarray
    time_h: np.ndarray | None = field(default=None, repr=False)
    true_concentration_molar: np.ndarray | None = field(
        default=None, repr=False)
    estimated_concentration_molar: np.ndarray | None = field(
        default=None, repr=False)
    measured_current_a: np.ndarray | None = field(default=None, repr=False)

    def channel_summary(self, index: int) -> str:
        """One-line accuracy summary for one channel."""
        channel = self.plan.channels[index]
        return (
            f"{channel.patient_id} [{channel.sensor.analyte.name}]: "
            f"MARD {self.mard[index] * 100:.1f} %, "
            f"in-spec {self.time_in_spec[index] * 100:.1f} %, "
            f"{int(self.n_recalibrations[index])} recals, "
            f"retention {self.final_retention[index]:.3f}")

    def summary(self) -> str:
        """Cohort-level summary plus one line per channel."""
        lines = [
            f"{self.plan.n_channels} channels x {self.plan.n_samples} "
            f"samples over {self.plan.duration_h:.0f} h "
            f"(every {self.plan.sample_period_s / 60:.0f} min): "
            f"cohort MARD {float(np.mean(self.mard)) * 100:.1f} %, "
            f"in-spec {float(np.mean(self.time_in_spec)) * 100:.1f} %, "
            f"{int(np.sum(self.n_recalibrations))} recalibrations"]
        lines += [f"  {self.channel_summary(i)}"
                  for i in range(self.plan.n_channels)]
        return "\n".join(lines)

    def summary_row(self) -> dict:
        """Flat scalar metrics of the wear simulation (JSON-serializable).

        The tabular-export half of the shared result contract
        (:class:`repro.scenarios.ResultProtocol`).
        """
        return {
            "workload": "monitor",
            "n_channels": self.plan.n_channels,
            "n_samples": self.plan.n_samples,
            "duration_h": float(self.plan.duration_h),
            "seed": self.plan.seed,
            "cohort_mard": float(np.mean(self.mard)),
            "cohort_time_in_spec": float(np.mean(self.time_in_spec)),
            "n_recalibrations": int(np.sum(self.n_recalibrations)),
            "mean_final_retention": float(np.mean(self.final_retention)),
        }

    def to_dict(self, include_traces: bool = False) -> dict:
        """JSON-serializable export of the evaluated wear simulation.

        Args:
            include_traces: also include the per-sample true/estimated
                concentration and measured-current traces (only possible
                when the plan kept them; off by default — they dominate
                the payload for week-long cohorts).

        Returns:
            ``summary_row()`` plus one accuracy entry per channel.
        """
        channels = [{
            "patient_id": channel.patient_id,
            "analyte": channel.sensor.analyte.name,
            "mard": float(self.mard[i]),
            "time_in_spec": float(self.time_in_spec[i]),
            "n_recalibrations": int(self.n_recalibrations[i]),
            "recalibration_times_h": list(self.recalibration_times_h[i]),
            "final_retention": float(self.final_retention[i]),
            "final_slope_a_per_molar": float(
                self.final_slope_a_per_molar[i]),
        } for i, channel in enumerate(self.plan.channels)]
        data = {**self.summary_row(), "channels": channels}
        if include_traces and self.time_h is not None:
            data.update({name: getattr(self, name).tolist()
                         for name in WEAR_TRACES})
        return data


@dataclass(frozen=True)
class WearParams:
    """Per-row parameters of the shared sensing front end.

    One row per monitor channel or therapy patient, each array
    ``(n_rows,)``: the sensor, its retention decay rate [1/h],
    background [A] and linear baseline drift [A/h], the wander OU
    (RMS [A], correlation time [s]), the per-reading noise sigma [A]
    and the day-0 calibration (slope [A/M], intercept [A]).  Read by
    :func:`sense_chunk`, the scalar references and the observation
    model alike.
    """

    sensors: tuple[Biosensor, ...]
    decay_rate_per_hour: np.ndarray
    background_a: np.ndarray
    baseline_drift_a_per_hour: np.ndarray
    wander_sigma_a: np.ndarray
    wander_tau_s: np.ndarray
    measurement_sigma_a: np.ndarray
    day0_slope: np.ndarray
    day0_intercept: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "WearParams":
        """Gather the front-end parameters of each row.

        A row exposes the front-end attributes of a
        :class:`MonitorChannel`: ``sensor``, ``budget``,
        ``wander_sigma_a``, ``wander_tau_h``, ``day0_slope_a_per_molar``
        and ``day0_intercept_a``.
        """
        sensors = tuple(row.sensor for row in rows)
        return cls(
            sensors=sensors,
            decay_rate_per_hour=np.array(
                [row.budget.decay_rate_per_hour for row in rows]),
            background_a=np.array(
                [sensor.background_current_a for sensor in sensors]),
            baseline_drift_a_per_hour=np.array(
                [row.budget.matrix.baseline_drift_a_per_hour_per_m2
                 * row.sensor.area_m2 for row in rows]),
            wander_sigma_a=np.array([row.wander_sigma_a for row in rows]),
            wander_tau_s=np.array(
                [row.wander_tau_h * 3600.0 for row in rows]),
            measurement_sigma_a=np.array(
                [reading_noise_sigma_a(sensor) for sensor in sensors]),
            day0_slope=np.array(
                [row.day0_slope_a_per_molar for row in rows]),
            day0_intercept=np.array([row.day0_intercept_a for row in rows]),
        )


def reading_noise_sigma_a(sensor: Biosensor) -> float:
    """Per-reading 1-sigma measurement noise of a deployed sensor [A].

    The acquisition chain's input-referred noise floor combined with the
    sensor's repeatability — the sigma the shared front end
    (:func:`sense_chunk`) injects per digitized reading.
    """
    return float(np.hypot(sensor.chain.input_referred_noise_rms(),
                          sensor.repeatability_std_a))


def digitize_rows(sensors: "list[Biosensor] | tuple[Biosensor, ...]",
                  currents: np.ndarray) -> np.ndarray:
    """Push reading currents through each row's acquisition chain.

    At monitoring cadence every reading is a settled plateau, so the
    chain's contribution per sample is its static transfer: TIA gain with
    rail saturation, then SAR-ADC quantization, referred back to input.
    (The chain's *noise* floor enters separately as part of the
    per-reading measurement sigma.)  The last stage of
    :func:`sense_chunk` — row ``i`` of ``currents`` goes through
    ``sensors[i]``.

    Args:
        sensors: one deployed sensor per row (repeat an instance for a
            cohort wearing copies of one design).
        currents: reading currents [A], ``(n_rows, n_samples)``.

    Returns:
        Input-referred digitized readings [A], same shape.

    Raises:
        ValueError: when ``currents`` is not ``(len(sensors), n)``.
    """
    currents = np.asarray(currents)
    require_row_block("currents", currents, len(sensors))
    digitized = np.empty_like(currents)
    for i, sensor in enumerate(sensors):
        chain = sensor.chain
        volts = np.clip(currents[i] * chain.tia.gain_v_per_a,
                        -chain.tia.rail_v, chain.tia.rail_v)
        digitized[i] = chain.adc.convert(volts) / chain.tia.gain_v_per_a
    return digitized


def init_wear_state(plan: WearSchedule, **workload) -> SimpleNamespace:
    """Carry state of the shared front end plus the ``workload`` fields.

    Each row owns three generator streams spawned from the plan seed in
    one fixed order — truth noise, baseline wander, measurement noise.
    The state also holds the day-0 calibration, both OU states, the
    reference schedule, the trace buffers (when ``plan.keep_traces``)
    and the rows grouped by sensor object, so :func:`sense_chunk` calls
    each distinct sensor's response once per chunk.
    """
    wear = plan.wear_params()
    n, n_samples = len(wear.sensors), plan.n_samples
    rngs = spawn_generators(plan.seed, STREAMS_PER_ROW * n)
    rows_by_sensor: dict[int, list[int]] = {}
    for i, sensor in enumerate(wear.sensors):
        rows_by_sensor.setdefault(id(sensor), []).append(i)
    keep = plan.keep_traces
    return SimpleNamespace(
        wear=wear,
        # One design reads the whole block as a view; several gather.
        sensor_groups=((wear.sensors[0], slice(None)),)
        if len(rows_by_sensor) == 1 else tuple(
            (wear.sensors[rows[0]], np.array(rows))
            for rows in rows_by_sensor.values()),
        truth_rngs=rngs[0::STREAMS_PER_ROW],
        wander_rngs=rngs[1::STREAMS_PER_ROW],
        measurement_rngs=rngs[2::STREAMS_PER_ROW],
        truth_state=np.zeros(n),
        wander_state=np.zeros(n),
        slopes=wear.day0_slope.copy(),
        intercepts=wear.day0_intercept,
        ref_every=plan.reference_every_samples,
        # A schedule that cannot fire inside the horizon runs open-loop
        # instead of dead segment-splitting arithmetic.
        policy_active=plan.n_reference_draws > 0,
        true_c=np.empty((n, n_samples)) if keep else None,
        est_c=np.empty((n, n_samples)) if keep else None,
        meas_i=np.empty((n, n_samples)) if keep else None,
        **workload,
    )


def sense_chunk(plan: WearSchedule, state: SimpleNamespace, c: np.ndarray,
                t_h: np.ndarray) -> np.ndarray:
    """The shared front end: true concentrations -> digitized readings.

    Turns ``c`` [mol/L], ``(n_rows, chunk)`` at wear times ``t_h`` [h],
    into input-referred readings [A] of the same shape: drifted faradaic
    response ``retention * f(c)``, plus background and linear baseline
    drift, plus the baseline-wander OU, plus the chain noise floor, then
    TIA rails and ADC (:func:`digitize_rows`).  With ``plan.add_noise``
    off the wander and chain noise are left out.  Advances ``state``
    (from :func:`init_wear_state`): its wander state and its wander and
    measurement streams.
    """
    wear = state.wear
    faradaic = np.empty_like(c)
    for sensor, rows in state.sensor_groups:
        faradaic[rows] = sensor.layer.steady_state_current(
            c[rows], sensor.area_m2)
    retention = np.exp(-wear.decay_rate_per_hour[:, None] * t_h[None, :])
    baseline = (wear.background_a[:, None]
                + wear.baseline_drift_a_per_hour[:, None] * t_h[None, :])
    current = retention * faradaic + baseline
    if plan.add_noise:
        chunk = t_h.shape[0]
        wander, state.wander_state = ou_process_batch(
            chunk, plan.sample_period_s, wear.wander_tau_s,
            wear.wander_sigma_a, state.wander_state,
            rngs=state.wander_rngs)
        shocks = np.stack([
            rng.standard_normal(chunk) for rng in state.measurement_rngs])
        current = (current + wander
                   + wear.measurement_sigma_a[:, None] * shocks)
    return digitize_rows(wear.sensors, current)


def estimate_chunk_with_recalibration(
        measured: np.ndarray,
        reference_concentration: np.ndarray,
        start: int,
        stop: int,
        slopes: np.ndarray,
        intercepts: np.ndarray,
        ref_every: int,
        tolerance: float,
        policy_active: bool,
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, np.ndarray]]]:
    """Linear estimation with segment-wise one-point recalibration.

    The shared vector-path core of both streaming engines (monitor and
    therapy): a chunk of digitized readings is inverted through the
    current per-channel calibration, split at the absolute reference
    sample indices so re-fits apply *from the next sample on* — the
    arithmetic the chunk-invariance contract rests on.  A reference
    fires at absolute index ``k`` when ``(k + 1) % ref_every == 0``;
    channels whose reading error at a reference exceeds ``tolerance``
    are re-fit via :func:`one_point_recalibration_batch` (a channel
    with a non-positive reference level skips its re-fit).  With
    ``policy_active`` false — disabled policy *or* a schedule that
    cannot fire inside the horizon — the chunk estimates in one segment
    with no recalibration arithmetic at all.

    Args:
        measured: digitized readings [A], ``(n_channels, chunk)``.
        reference_concentration: true levels at each sample [mol/L]
            (the lab-draw ground truth), same shape.
        start / stop: absolute sample range ``[start, stop)`` of the
            chunk.
        slopes / intercepts: current calibration, ``(n_channels,)``.
        ref_every: reference cadence in samples.
        tolerance: relative error triggering a re-fit.
        policy_active: whether any reference can fire this run.

    Returns:
        ``(estimates, slopes, events)``: the ``(n_channels, chunk)``
        concentration estimates, the (possibly re-fit) slopes, and one
        ``(absolute_index, accepted_mask)`` entry per reference sample
        where at least one channel was re-fit.
    """
    n_channels, chunk = measured.shape
    estimates = np.empty((n_channels, chunk))
    events: list[tuple[int, np.ndarray]] = []
    segment_start = start
    while segment_start < stop:
        if policy_active:
            # Next reference sample at an absolute index (chunk-
            # invariant): k is a reference when (k + 1) % ref == 0.
            next_ref = ((segment_start + ref_every)
                        // ref_every) * ref_every - 1
            segment_stop = min(stop, next_ref + 1)
        else:
            segment_stop = stop
        local = slice(segment_start - start, segment_stop - start)
        estimates[:, local] = np.maximum(
            0.0, (measured[:, local] - intercepts[:, None])
            / slopes[:, None])
        last = segment_stop - 1
        if policy_active and (last + 1) % ref_every == 0:
            j = last - start
            reference_c = reference_concentration[:, j]
            # A channel whose true level sits at a 0.0 trajectory
            # floor has no usable reference draw this round: skip
            # its re-fit instead of aborting the cohort.
            has_reference = reference_c > 0
            rel_error = np.zeros(n_channels)
            np.divide(np.abs(estimates[:, j] - reference_c),
                      reference_c, out=rel_error, where=has_reference)
            triggered = has_reference & (rel_error > tolerance)
            if np.any(triggered):
                refit, applied = one_point_recalibration_batch(
                    slopes, np.where(has_reference, reference_c, 1.0),
                    measured[:, j], intercepts)
                accepted = triggered & applied
                slopes = np.where(accepted, refit, slopes)
                if np.any(accepted):
                    events.append((last, accepted))
        segment_start = segment_stop
    return estimates, slopes, events


def run_monitor(plan: MonitorPlan) -> MonitorResult:
    """Stream a cohort through wear-time in chunked, vectorized blocks.

    The engine entry point for the monitoring workload.  Each chunk
    advances every channel by up to ``plan.chunk_samples`` readings as
    ``(n_channels, chunk)`` array passes; recalibration state (the
    estimator slope) carries across chunk boundaries.

    Returns:
        A :class:`MonitorResult` with per-channel MARD / time-in-spec
        summaries (and full traces when ``plan.keep_traces``).

    Determinism: with a fixed ``plan.seed`` the result is reproducible
    and independent of ``plan.chunk_samples`` (asserted to <= 1e-9 by
    the shared contract suite, ``tests/engine/test_core_contract.py``).
    """
    return execute(MONITOR_KERNELS, plan)


def _init_monitor_state(plan: MonitorPlan) -> SimpleNamespace:
    """Carry state threaded through the monitor chunks: the shared
    front-end state plus the trajectory noise parameters and the
    accuracy accumulators."""
    channels = plan.channels
    n_channels = plan.n_channels
    return init_wear_state(
        plan,
        noise_sigma_molar=np.array(
            [c.trajectory.noise_sigma_molar for c in channels]),
        noise_tau_s=np.array(
            [c.trajectory.noise_tau_h * 3600.0 for c in channels]),
        floor_molar=np.array([c.trajectory.floor_molar for c in channels]),
        abs_rel_error_sum=np.zeros(n_channels),
        in_spec_count=np.zeros(n_channels),
        valid_count=np.zeros(n_channels),
        recal_times=[[] for _ in range(n_channels)],
        last_update=None,
    )


def _monitor_chunk(plan: MonitorPlan, state: SimpleNamespace,
                   start: int, stop: int) -> None:
    """Advance every channel by one ``(n_channels, chunk)`` block."""
    n_channels = plan.n_channels
    chunk = stop - start
    t_h = plan.sample_times_h(start, stop)

    # --- truth: physiological concentration per channel ------------
    c = np.stack([
        channel.trajectory.mean_molar(t_h)
        for channel in plan.channels])
    if plan.add_noise:
        c_noise, state.truth_state = ou_process_batch(
            chunk, plan.sample_period_s, state.noise_tau_s,
            state.noise_sigma_molar, state.truth_state,
            rngs=state.truth_rngs)
        c = c + c_noise
    c = np.maximum(c, state.floor_molar[:, None])

    measured = sense_chunk(plan, state, c, t_h)

    # --- estimation + online recalibration, segment-wise -----------
    estimates, state.slopes, events = estimate_chunk_with_recalibration(
        measured, c, start, stop, state.slopes, state.intercepts,
        state.ref_every, plan.recalibration.tolerance,
        state.policy_active)
    for last, accepted in events:
        when = float(t_h[last - start])
        for i in np.flatnonzero(accepted):
            state.recal_times[i].append(when)

    # --- accuracy accounting ---------------------------------------
    valid = c > 0
    rel_errors = np.zeros((n_channels, chunk))
    np.divide(np.abs(estimates - c), c, out=rel_errors, where=valid)
    state.abs_rel_error_sum += np.sum(rel_errors, axis=1, where=valid)
    state.in_spec_count += np.sum(
        (rel_errors <= plan.spec_tolerance) & valid, axis=1)
    state.valid_count += np.sum(valid, axis=1)
    if plan.keep_traces:
        state.true_c[:, start:stop] = c
        state.est_c[:, start:stop] = estimates
        state.meas_i[:, start:stop] = measured
    # References to this chunk's freshly allocated arrays — what
    # stream_update hands to a live consumer without needing traces.
    state.last_update = {
        "time_h": t_h,
        "true_concentration_molar": c,
        "estimated_concentration_molar": estimates,
        "measured_current_a": measured,
    }


def _finalize_monitor(plan: MonitorPlan,
                      state: SimpleNamespace) -> MonitorResult:
    """Assemble the :class:`MonitorResult` from the carry state (or the
    scalar reference's accumulators)."""
    n_samples = plan.n_samples
    recal_times = state.recal_times
    safe_n = np.maximum(state.valid_count, 1.0)
    return MonitorResult(
        plan=plan,
        mard=state.abs_rel_error_sum / safe_n,
        time_in_spec=state.in_spec_count / safe_n,
        n_recalibrations=np.array([len(times) for times in recal_times]),
        recalibration_times_h=tuple(tuple(times) for times in recal_times),
        final_retention=np.exp(
            -state.wear.decay_rate_per_hour
            * float(plan.sample_times_h(n_samples - 1, n_samples)[0])),
        final_slope_a_per_molar=state.slopes,
        time_h=plan.sample_times_h(0, n_samples)
        if plan.keep_traces else None,
        true_concentration_molar=state.true_c,
        estimated_concentration_molar=state.est_c,
        measured_current_a=state.meas_i,
    )


def _run_monitor_scalar(plan: MonitorPlan) -> MonitorResult:
    """Day-by-day scalar reference: one channel, one sample at a time.

    The historical way the long-term examples advanced wear-time — a
    Python loop over every (channel, sample) pair through the *scalar*
    APIs (``DriftBudget.sensitivity_retention``, scalar OU updates,
    scalar ``one_point_recalibration``).  Consumes the same per-channel
    generator streams as :func:`run_monitor`, so the two paths agree to
    floating-point reassociation (asserted to <= 1e-9) — which is exactly
    why the chunked engine exists: same physics, >= 5x the throughput
    (gated by the shared bench harness, ``benchmarks/bench_core.py``).
    """
    wear = plan.wear_params()
    n_channels, n_samples = plan.n_channels, plan.n_samples
    rngs = spawn_generators(plan.seed, STREAMS_PER_ROW * n_channels)
    dt_s = plan.sample_period_s
    ref_every = plan.reference_every_samples
    policy = plan.recalibration
    policy_active = plan.n_reference_draws > 0  # zero-recal path explicit

    error_sums = np.zeros(n_channels)
    in_spec_counts = np.zeros(n_channels)
    valid_counts = np.zeros(n_channels)
    final_slopes = np.zeros(n_channels)
    recal_times: list[list[float]] = []
    if plan.keep_traces:
        true_c = np.empty((n_channels, n_samples))
        est_c = np.empty((n_channels, n_samples))
        meas_i = np.empty((n_channels, n_samples))

    for i, channel in enumerate(plan.channels):
        trajectory_rng, wander_rng, measurement_rng = rngs[
            STREAMS_PER_ROW * i:STREAMS_PER_ROW * (i + 1)]
        sensor = channel.sensor
        chain = sensor.chain
        trajectory = channel.trajectory
        slope = float(wear.day0_slope[i])
        intercept = float(wear.day0_intercept[i])
        background = float(wear.background_a[i])
        noise_a = np.exp(-dt_s / (trajectory.noise_tau_h * 3600.0))
        noise_scale = (trajectory.noise_sigma_molar
                       * np.sqrt(1.0 - noise_a ** 2))
        wander_a = np.exp(-dt_s / wear.wander_tau_s[i])
        wander_scale = (wear.wander_sigma_a[i]
                        * np.sqrt(1.0 - wander_a ** 2))
        trajectory_state = 0.0
        wander_state = 0.0
        error_sum = 0.0
        in_spec = 0
        valid = 0
        times: list[float] = []

        for k in range(n_samples):
            t_h = (k + 1) * dt_s / 3600.0
            mean = trajectory.mean_molar(t_h)
            if plan.add_noise:
                trajectory_state = (noise_a * trajectory_state
                                    + noise_scale
                                    * trajectory_rng.standard_normal())
            c = max(mean + trajectory_state, trajectory.floor_molar)
            faradaic = float(sensor.layer.steady_state_current(
                c, sensor.area_m2))
            retention = channel.budget.sensitivity_retention(t_h)
            baseline = (background
                        + channel.budget.matrix.baseline_drift_a(
                            sensor.area_m2, t_h))
            if plan.add_noise:
                wander_state = (wander_a * wander_state
                                + wander_scale
                                * wander_rng.standard_normal())
            current = retention * faradaic + baseline + wander_state
            if plan.add_noise:
                current += (wear.measurement_sigma_a[i]
                            * measurement_rng.standard_normal())
            volts = float(np.clip(current * chain.tia.gain_v_per_a,
                                  -chain.tia.rail_v, chain.tia.rail_v))
            measured = float(chain.adc.convert(volts)[0]
                             / chain.tia.gain_v_per_a)
            estimate = max(0.0, (measured - intercept) / slope)
            if policy_active and (k + 1) % ref_every == 0 and c > 0:
                rel_error = abs(estimate - c) / c
                if rel_error > policy.tolerance:
                    try:
                        slope = one_point_recalibration(
                            slope, c, measured, intercept)
                        times.append(t_h)
                    except ValueError:
                        pass
            if c > 0:
                error_sum += abs(estimate - c) / c
                in_spec += abs(estimate - c) / c <= plan.spec_tolerance
                valid += 1
            if plan.keep_traces:
                true_c[i, k] = c
                est_c[i, k] = estimate
                meas_i[i, k] = measured

        error_sums[i], in_spec_counts[i], valid_counts[i] = (
            error_sum, in_spec, valid)
        final_slopes[i] = slope
        recal_times.append(times)

    keep = plan.keep_traces
    return _finalize_monitor(plan, SimpleNamespace(
        wear=wear, abs_rel_error_sum=error_sums,
        in_spec_count=in_spec_counts, valid_count=valid_counts,
        recal_times=recal_times, slopes=final_slopes,
        true_c=true_c if keep else None, est_c=est_c if keep else None,
        meas_i=meas_i if keep else None))


def cohort(sensor: Biosensor,
           analyte: str,
           n_patients: int,
           matrix=SERUM,
           enzyme_half_life_s: float = 2 * 7 * 24 * 3600.0,
           temperature_k: float = 310.15,
           wander_sigma_a: float = 0.0) -> tuple[MonitorChannel, ...]:
    """Build a cohort of patients wearing copies of one sensor.

    Patients differ deterministically — circadian phases and baselines
    spread across the clinical window as a function of the patient index,
    no randomness — so cohorts are reproducible even before seeding.

    Args:
        sensor: the deployed sensor design (shared by every patient).
        analyte: key into the physiological-range catalog.
        n_patients: cohort size.
        matrix: wear matrix (fouling / baseline drift source).
        enzyme_half_life_s: operational half-life of the immobilized
            enzyme at its reference temperature.
        temperature_k: wear temperature (body temperature default).
        wander_sigma_a: per-channel baseline-wander RMS [A].

    Returns:
        ``n_patients`` :class:`MonitorChannel` entries.
    """
    if n_patients < 1:
        raise ValueError("need at least one patient")
    base = ConcentrationTrajectory.for_analyte(analyte)
    budget = DriftBudget(
        stability=EnzymeStability(half_life_s=enzyme_half_life_s),
        matrix=matrix,
        temperature_k=temperature_k)
    channels = []
    for i in range(n_patients):
        spread = (i / n_patients - 0.5)  # in [-0.5, 0.5)
        trajectory = replace(
            base,
            baseline_molar=base.baseline_molar * (1.0 + 0.4 * spread),
            circadian_phase_h=(i * 24.0 / max(n_patients, 1)) % 24.0,
        )
        channels.append(MonitorChannel(
            patient_id=f"patient-{i:03d}",
            sensor=sensor,
            trajectory=trajectory,
            budget=budget,
            wander_sigma_a=wander_sigma_a,
        ))
    return tuple(channels)


def glucose_cohort(n_patients: int = 8,
                   wander_sigma_a: float = 2e-9) -> tuple[MonitorChannel, ...]:
    """A ready-made glucose cohort on the paper's "this work" sensor.

    Convenience for examples, tests and docs: ``n_patients`` wearers of
    the MWCNT/Nafion + GOD glucose sensor in serum at body temperature.

    Args:
        n_patients: cohort size.
        wander_sigma_a: baseline-wander RMS [A] per channel.

    Returns:
        ``n_patients`` :class:`MonitorChannel` entries.
    """
    # Imported here: the registry composes sensors out of half the
    # library, and the monitor only needs it for this convenience.
    from repro.core.registry import build_sensor, spec_by_id

    sensor = build_sensor(spec_by_id("glucose/this-work"))
    return cohort(sensor, "glucose", n_patients,
                  wander_sigma_a=wander_sigma_a)


#: Monitor snapshot layout, ``(snapshot key, carry-state attribute)``:
#: generator streams, carry arrays, and trace prefixes.
_SNAPSHOT_STREAMS = (("trajectory", "truth_rngs"), ("wander", "wander_rngs"),
                     ("measurement", "measurement_rngs"))
_SNAPSHOT_ARRAYS = (
    ("slopes", "slopes"), ("trajectory_state", "truth_state"),
    ("wander_state", "wander_state"),
    ("abs_rel_error_sum", "abs_rel_error_sum"),
    ("in_spec_count", "in_spec_count"), ("valid_count", "valid_count"))
_SNAPSHOT_TRACES = (("true_concentration_molar", "true_c"),
                    ("estimated_concentration_molar", "est_c"),
                    ("measured_current_a", "meas_i"))


class MonitorKernels(KernelSet):
    """The monitoring workload as a kernel set on the execution core.

    One segment spans the whole wear horizon; the carry state threads
    the live calibration (slopes), both OU states and the accuracy
    accumulators across chunks, which is what makes results
    chunk-size-invariant.
    """

    name = "monitor"
    plan_type = MonitorPlan
    floor_env = "MONITOR_SPEEDUP_FLOOR"
    snapshot_version = 1

    def compile(self, plan: MonitorPlan):
        """One segment spanning the wear horizon, chunked as planned."""
        return single_segment(self.name, plan.n_channels,
                              plan.n_samples, plan.chunk_samples)

    def init_state(self, plan: MonitorPlan) -> SimpleNamespace:
        """Generator streams, day-0 calibration and accumulators."""
        return _init_monitor_state(plan)

    def run_chunk(self, plan: MonitorPlan, state, segment,
                  start: int, stop: int) -> None:
        """Advance the cohort across samples ``[start, stop)``."""
        _monitor_chunk(plan, state, start, stop)

    def finalize(self, plan: MonitorPlan, state) -> MonitorResult:
        """Assemble the :class:`MonitorResult`."""
        return _finalize_monitor(plan, state)

    def export_state(self, plan: MonitorPlan, state,
                     cursor: int) -> dict:
        """Serialize the monitor carry state after ``cursor`` samples.

        The snapshot holds the three generator-stream positions per
        channel, the live calibration (slopes), both OU states, the
        accuracy accumulators and the recalibration record — plus the
        trace prefixes ``[:, :cursor]`` when the plan keeps traces.
        With ``keep_traces=False`` the snapshot size is independent of
        the cursor (the bounded-memory property
        ``benchmarks/bench_serve.py`` gates).
        """
        snapshot = snapshot_envelope(self.name, self.snapshot_version,
                                     cursor)
        snapshot.update({
            "n_channels": plan.n_channels,
            "rngs": {key: [encode_rng(g) for g in getattr(state, attr)]
                     for key, attr in _SNAPSHOT_STREAMS},
            **{key: encode_array(getattr(state, attr))
               for key, attr in _SNAPSHOT_ARRAYS},
            "recal_times": [list(times) for times in state.recal_times],
        })
        if plan.keep_traces:
            snapshot["traces"] = {
                key: encode_array(getattr(state, attr)[:, :cursor])
                for key, attr in _SNAPSHOT_TRACES}
        return snapshot

    def restore_state(self, plan: MonitorPlan, snapshot):
        """Rebuild ``(state, cursor)`` from an exported snapshot.

        The returned state is indistinguishable from one that streamed
        ``[0, cursor)`` in-process: a fresh :func:`_init_monitor_state`
        whose generator streams are repositioned and whose calibration,
        OU states, accumulators and trace prefixes are overwritten from
        the snapshot.
        """
        cursor = require_snapshot(snapshot, self.name,
                                  self.snapshot_version, plan.n_samples)
        n = plan.n_channels
        require_keys(snapshot, ("n_channels", "rngs", "recal_times",
                                *(key for key, _ in _SNAPSHOT_ARRAYS)),
                     "monitor snapshot")
        if snapshot["n_channels"] != n:
            raise ValueError(
                f"snapshot holds {snapshot['n_channels']} channels, "
                f"plan has {n}")
        if plan.keep_traces and "traces" not in snapshot:
            raise ValueError(
                "plan keeps traces but the snapshot carries none "
                "(exported with keep_traces=False)")
        state = _init_monitor_state(plan)
        rngs = require_keys(snapshot["rngs"],
                            (key for key, _ in _SNAPSHOT_STREAMS),
                            "monitor snapshot rngs")
        for key, attr in _SNAPSHOT_STREAMS:
            setattr(state, attr, [decode_rng(s) for s in require_list(
                rngs[key], n, f"rngs.{key}")])
        for key, attr in _SNAPSHOT_ARRAYS:
            setattr(state, attr, decode_array(snapshot[key], shape=(n,)))
        recal_times = require_list(snapshot["recal_times"], n,
                                   "recal_times")
        if not all(isinstance(times, list) and all(
                type(t) is float for t in times) for times in recal_times):
            raise ValueError("recal_times must be lists of float hours")
        state.recal_times = [list(times) for times in recal_times]
        if plan.keep_traces and cursor > 0:
            traces = require_keys(snapshot["traces"],
                                  (key for key, _ in _SNAPSHOT_TRACES),
                                  "monitor snapshot traces")
            for key, attr in _SNAPSHOT_TRACES:
                getattr(state, attr)[:, :cursor] = decode_array(
                    traces[key], shape=(n, cursor))
        return state, cursor

    def stream_update(self, plan: MonitorPlan, state, start: int,
                      stop: int) -> dict:
        """The chunk that just ran, as incremental per-sample outputs.

        Returns ``time_h`` plus the true / estimated concentration and
        measured-current blocks for ``[start, stop)`` — available with
        or without ``keep_traces`` (the chunk arrays are handed over
        directly, so streaming never forces trace retention).
        """
        update = state.last_update
        if update is None or update["time_h"].shape[0] != stop - start:
            raise ValueError(
                f"no pending chunk update for [{start}, {stop})")
        return update

    def describe_metrics(self, plan: MonitorPlan,
                         result: MonitorResult) -> dict:
        """Monitoring health counters: recalibrations fired, readings
        taken, and TIA-rail-censored samples (readings pinned at a rail
        carry no amplitude information — the estimation layer treats
        them as missing).  The censoring count needs the current trace,
        so it is only reported when ``plan.keep_traces``."""
        metrics = {
            "recalibrations": int(np.sum(result.n_recalibrations)),
            "readings": plan.n_channels * plan.n_samples,
        }
        if result.measured_current_a is not None:
            from repro.inference.observation import rail_censored_mask

            censored = rail_censored_mask(
                [channel.sensor for channel in plan.channels],
                result.measured_current_a)
            metrics["rail_censored_samples"] = int(np.sum(censored))
        return metrics

    def run_scalar(self, plan: MonitorPlan) -> MonitorResult:
        """Per-(channel, sample) reference through the scalar APIs."""
        return _run_monitor_scalar(plan)

    def contract_plan(self) -> MonitorPlan:
        """Three glucose wearers over 36 h at 15-min cadence."""
        return MonitorPlan(channels=glucose_cohort(3), duration_h=36.0,
                           sample_period_s=900.0, chunk_samples=64,
                           seed=7)

    def contract_fields(self, result: MonitorResult) -> dict:
        """Traces, accuracy scores and the recalibration record."""
        return {
            "true_concentration_molar": Check(
                result.true_concentration_molar, atol=1e-9),
            "measured_current_a": Check(
                result.measured_current_a, atol=1e-15),
            "estimated_concentration_molar": Check(
                result.estimated_concentration_molar, atol=1e-9),
            "mard": Check(result.mard, atol=1e-9),
            "time_in_spec": Check(result.time_in_spec, atol=1e-12),
            "n_recalibrations": Check(result.n_recalibrations,
                                      exact=True),
            "recalibration_times_h": Check(
                np.array([t for times in result.recalibration_times_h
                          for t in times]), atol=1e-9),
            "final_slope_a_per_molar": Check(
                result.final_slope_a_per_molar, atol=0.0, rtol=1e-9),
        }


#: The registered monitor kernel set (the target of ``run_monitor``).
MONITOR_KERNELS = register_kernels(MonitorKernels())
