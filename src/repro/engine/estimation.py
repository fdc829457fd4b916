"""Estimation engine: reconstruct cohort concentrations from currents.

The fourth workload class.  :func:`run_estimation` composes the
streaming monitor's forward physics (:func:`repro.engine.run_monitor`
provides the ground truth *and* the digitized current streams) with the
inverse layer of :mod:`repro.inference`: an observation model derived
from the plan's own physics, a batch Kalman filter over the cohort, an
optional RTS smoothing pass, and the evaluation metrics (RMSE, MARD,
95 %-credible-interval coverage) that say whether the reconstruction can
be trusted.

Because filter and simulator share one physics description
(:func:`repro.inference.observation.monitor_observation_model`), the
credible intervals are *calibrated*: empirical coverage of the nominal
95 % band is gated within [0.90, 0.99] in
``benchmarks/bench_inference.py``.

Quickstart::

    from repro.engine import MonitorPlan, glucose_cohort
    from repro.engine.estimation import EstimationPlan, run_estimation

    plan = EstimationPlan(monitor=MonitorPlan(
        channels=glucose_cohort(n_patients=8), duration_h=48.0, seed=42))
    print(run_estimation(plan).summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np
from scipy.stats import norm

from repro.engine.core import (
    Check,
    KernelSet,
    PlanBase,
    decode_array,
    encode_array,
    execute,
    register_kernels,
    require_keys,
    require_snapshot,
    single_segment,
    snapshot_envelope,
)
from repro.engine.monitor import (
    MONITOR_KERNELS,
    MonitorPlan,
    MonitorResult,
    _finalize_monitor,
    _init_monitor_state,
    _monitor_chunk,
    glucose_cohort,
    run_monitor,
)
from repro.inference.evaluate import (
    credible_interval,
    interval_coverage,
    reconstruction_mard,
    reconstruction_rmse,
)
from repro.inference.kalman import (
    KalmanDynamics,
    KalmanState,
    KalmanTrace,
    kalman_filter_scalar,
    rts_smoother_batch,
    rts_smoother_scalar,
)
from repro.inference.observation import (
    MonitorObservationModel,
    _observation_model,
    monitor_observation_model,
)


@dataclass(frozen=True)
class EstimationPlan(PlanBase):
    """Declarative description of one cohort reconstruction run.

    Attributes:
        monitor: the wear simulation whose current streams are
            inverted; must keep traces (the filter consumes the
            digitized readings sample by sample).
        smooth: also run the RTS backward pass (the offline
            reconstruction); the causal filter output is always
            produced.
        interval_level: nominal credible level of the reported bands
            (0.95 -> the central 95 % interval).
    """

    monitor: MonitorPlan
    smooth: bool = True
    interval_level: float = 0.95

    def validate(self) -> None:
        """Field-level invariants, in the shared ``PlanBase`` wording."""
        if not self.monitor.keep_traces:
            raise ValueError(
                "estimation needs the monitor traces: set keep_traces=True")
        if not 0.0 < self.interval_level < 1.0:
            raise ValueError("interval level must be in (0, 1)")

    @property
    def n_channels(self) -> int:
        """Cohort size (delegates to the wrapped monitor plan)."""
        return self.monitor.n_channels

    @property
    def n_samples(self) -> int:
        """Readings per channel (delegates to the monitor plan)."""
        return self.monitor.n_samples

    @property
    def seed(self) -> int | None:
        """Root seed of the underlying wear simulation."""
        return self.monitor.seed

    @property
    def duration_h(self) -> float:
        """Wear horizon [h] (delegates to the monitor plan)."""
        return self.monitor.duration_h

    @property
    def interval_z(self) -> float:
        """Two-sided normal quantile of ``interval_level`` (1.96 at 95 %)."""
        return float(norm.ppf(0.5 * (1.0 + self.interval_level)))


@dataclass(frozen=True)
class EstimationResult:
    """Evaluated reconstruction: traces, bands and per-channel scores.

    Attributes:
        plan: the estimation run that produced these numbers.
        monitor: the underlying wear simulation (truth + currents).
        filtered_concentration_molar / filtered_std_molar: causal
            (online) reconstruction and its posterior standard
            deviation, ``(n_channels, n_samples)``.
        smoothed_concentration_molar / smoothed_std_molar: RTS-smoothed
            reconstruction (``None`` unless ``plan.smooth``).
        filtered_rmse_molar / filtered_mard / filtered_coverage:
            per-channel accuracy and empirical interval coverage of the
            causal reconstruction, ``(n_channels,)``.
        smoothed_rmse_molar / smoothed_mard / smoothed_coverage: same
            for the smoothed pass (``None`` unless ``plan.smooth``).
    """

    plan: EstimationPlan
    monitor: MonitorResult = field(repr=False)
    filtered_concentration_molar: np.ndarray = field(repr=False)
    filtered_std_molar: np.ndarray = field(repr=False)
    filtered_rmse_molar: np.ndarray
    filtered_mard: np.ndarray
    filtered_coverage: np.ndarray
    smoothed_concentration_molar: np.ndarray | None = field(
        default=None, repr=False)
    smoothed_std_molar: np.ndarray | None = field(default=None, repr=False)
    smoothed_rmse_molar: np.ndarray | None = None
    smoothed_mard: np.ndarray | None = None
    smoothed_coverage: np.ndarray | None = None

    @property
    def time_h(self) -> np.ndarray:
        """Sample times [h] of every trace."""
        return self.monitor.time_h

    @property
    def true_concentration_molar(self) -> np.ndarray:
        """The simulator's ground truth, ``(n_channels, n_samples)``."""
        return self.monitor.true_concentration_molar

    @property
    def linear_mard(self) -> np.ndarray:
        """MARD of the monitor's own linear estimator — the baseline the
        filter is measured against, ``(n_channels,)``."""
        return self.monitor.mard

    def reconstruction(self) -> tuple[np.ndarray, np.ndarray]:
        """The best available reconstruction and its standard deviation.

        The smoothed pass when the plan ran one, the causal filter
        otherwise — what an offline consumer (plotting, reporting)
        should use by default.
        """
        if self.smoothed_concentration_molar is not None:
            return (self.smoothed_concentration_molar,
                    self.smoothed_std_molar)
        return self.filtered_concentration_molar, self.filtered_std_molar

    def interval(self, smoothed: bool | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(lower, upper)`` credible band at the plan's level.

        Args:
            smoothed: which pass the band belongs to — ``True`` for the
                RTS pass (requires ``plan.smooth``), ``False`` for the
                causal filter, and ``None`` (the default) for the best
                available pass, matching :meth:`reconstruction` so the
                default mean/band pair is always consistent.
        """
        if smoothed is None:
            smoothed = self.smoothed_concentration_molar is not None
        if smoothed:
            if self.smoothed_concentration_molar is None:
                raise ValueError("plan did not run the smoother")
            return credible_interval(self.smoothed_concentration_molar,
                                     self.smoothed_std_molar,
                                     self.plan.interval_z)
        return credible_interval(self.filtered_concentration_molar,
                                 self.filtered_std_molar,
                                 self.plan.interval_z)

    def channel_summary(self, index: int) -> str:
        """One-line reconstruction summary for one channel."""
        channel = self.plan.monitor.channels[index]
        line = (
            f"{channel.patient_id} [{channel.sensor.analyte.name}]: "
            f"filtered MARD {self.filtered_mard[index] * 100:.1f} % "
            f"(linear {self.linear_mard[index] * 100:.1f} %), "
            f"coverage {self.filtered_coverage[index] * 100:.1f} %")
        if self.smoothed_mard is not None:
            line += (f", smoothed MARD "
                     f"{self.smoothed_mard[index] * 100:.1f} %")
        return line

    def summary(self) -> str:
        """Cohort-level reconstruction summary plus one line per channel."""
        plan = self.plan
        level = plan.interval_level * 100
        head = (
            f"{plan.n_channels} channels x {plan.n_samples} samples over "
            f"{plan.duration_h:.0f} h: filtered MARD "
            f"{float(np.mean(self.filtered_mard)) * 100:.1f} % "
            f"(linear estimator "
            f"{float(np.mean(self.linear_mard)) * 100:.1f} %), "
            f"{level:.0f} %-interval coverage "
            f"{float(np.mean(self.filtered_coverage)) * 100:.1f} %")
        if self.smoothed_mard is not None:
            head += (f"; smoothed MARD "
                     f"{float(np.mean(self.smoothed_mard)) * 100:.1f} %, "
                     f"coverage "
                     f"{float(np.mean(self.smoothed_coverage)) * 100:.1f} %")
        lines = [head] + [f"  {self.channel_summary(i)}"
                          for i in range(plan.n_channels)]
        return "\n".join(lines)

    def summary_row(self) -> dict:
        """Flat scalar metrics of the reconstruction (JSON-serializable).

        The tabular-export half of the shared result contract
        (:class:`repro.scenarios.ResultProtocol`).
        """
        row = {
            "workload": "estimation",
            "n_channels": self.plan.n_channels,
            "n_samples": self.plan.n_samples,
            "duration_h": float(self.plan.duration_h),
            "seed": self.plan.seed,
            "interval_level": float(self.plan.interval_level),
            "cohort_filtered_rmse_molar": float(
                np.mean(self.filtered_rmse_molar)),
            "cohort_filtered_mard": float(np.mean(self.filtered_mard)),
            "cohort_filtered_coverage": float(
                np.mean(self.filtered_coverage)),
            "cohort_linear_mard": float(np.mean(self.linear_mard)),
        }
        if self.smoothed_rmse_molar is not None:
            row.update({
                "cohort_smoothed_rmse_molar": float(
                    np.mean(self.smoothed_rmse_molar)),
                "cohort_smoothed_mard": float(np.mean(self.smoothed_mard)),
                "cohort_smoothed_coverage": float(
                    np.mean(self.smoothed_coverage)),
            })
        return row

    def to_dict(self, include_traces: bool = False) -> dict:
        """JSON-serializable export of the evaluated reconstruction.

        Args:
            include_traces: also include the per-sample truth,
                reconstruction means and standard deviations (they
                dominate the payload for long cohorts; off by default).

        Returns:
            ``summary_row()`` plus one accuracy entry per channel.
        """
        channels = [{
            "patient_id": channel.patient_id,
            "analyte": channel.sensor.analyte.name,
            "filtered_rmse_molar": float(self.filtered_rmse_molar[i]),
            "filtered_mard": float(self.filtered_mard[i]),
            "filtered_coverage": float(self.filtered_coverage[i]),
            "linear_mard": float(self.linear_mard[i]),
            **({"smoothed_rmse_molar": float(self.smoothed_rmse_molar[i]),
                "smoothed_mard": float(self.smoothed_mard[i]),
                "smoothed_coverage": float(self.smoothed_coverage[i])}
               if self.smoothed_rmse_molar is not None else {}),
        } for i, channel in enumerate(self.plan.monitor.channels)]
        data = {**self.summary_row(), "channels": channels}
        if include_traces:
            data["time_h"] = self.time_h.tolist()
            data["true_concentration_molar"] = (
                self.true_concentration_molar.tolist())
            data["filtered_concentration_molar"] = (
                self.filtered_concentration_molar.tolist())
            data["filtered_std_molar"] = self.filtered_std_molar.tolist()
            if self.smoothed_concentration_molar is not None:
                data["smoothed_concentration_molar"] = (
                    self.smoothed_concentration_molar.tolist())
                data["smoothed_std_molar"] = (
                    self.smoothed_std_molar.tolist())
        return data


def _reconstruct(model: MonitorObservationModel, m1: np.ndarray,
                 p11: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deviation state + trajectory mean -> clipped concentration, std."""
    concentration = np.maximum(model.mean_molar + m1, 0.0)
    std = np.sqrt(np.maximum(p11, 0.0))
    return concentration, std


def _evaluate(truth: np.ndarray, concentration: np.ndarray,
              std: np.ndarray, z: float):
    """Score one reconstruction pass: RMSE, MARD, interval coverage."""
    lower, upper = credible_interval(concentration, std, z)
    return (reconstruction_rmse(truth, concentration),
            reconstruction_mard(truth, concentration),
            interval_coverage(truth, lower, upper))


def _observation_inputs(plan: EstimationPlan,
                        monitor_result: MonitorResult):
    """Observation model and per-sample measurement variances.

    Rail-saturated readings carry no amplitude information: censor
    them (infinite variance -> pure prediction) instead of letting
    the clipped value masquerade as a measurement.
    """
    model = monitor_observation_model(plan.monitor)
    return model, model.reading_variance(monitor_result.measured_current_a)


def _assemble(plan: EstimationPlan, monitor_result: MonitorResult,
              model: MonitorObservationModel, trace,
              smoothed) -> EstimationResult:
    """Score filter (and optional smoother) traces into the result."""
    truth = monitor_result.true_concentration_molar
    z = plan.interval_z
    filtered_c, filtered_std = _reconstruct(model, trace.m1, trace.p11)
    filtered_scores = _evaluate(truth, filtered_c, filtered_std, z)
    smoothed_c = smoothed_std = None
    smoothed_scores = (None, None, None)
    if smoothed is not None:
        smoothed_c, smoothed_std = _reconstruct(
            model, smoothed.m1, smoothed.p11)
        smoothed_scores = _evaluate(truth, smoothed_c, smoothed_std, z)
    return EstimationResult(
        plan=plan,
        monitor=monitor_result,
        filtered_concentration_molar=filtered_c,
        filtered_std_molar=filtered_std,
        filtered_rmse_molar=filtered_scores[0],
        filtered_mard=filtered_scores[1],
        filtered_coverage=filtered_scores[2],
        smoothed_concentration_molar=smoothed_c,
        smoothed_std_molar=smoothed_std,
        smoothed_rmse_molar=smoothed_scores[0],
        smoothed_mard=smoothed_scores[1],
        smoothed_coverage=smoothed_scores[2],
    )


def run_estimation(plan: EstimationPlan) -> EstimationResult:
    """Reconstruct a cohort's concentrations on the vectorized path.

    Runs the wear simulation (truth + digitized currents), builds the
    consistent-by-construction observation model, filters the whole
    cohort as ``(n_channels,)`` array recursions, optionally smooths,
    and scores the result.

    Returns:
        The evaluated :class:`EstimationResult`.

    Determinism: with a fixed monitor seed the result is reproducible;
    the filter itself is deterministic given the currents.
    """
    return execute(ESTIMATION_KERNELS, plan)


def _run_estimation_scalar(plan: EstimationPlan) -> EstimationResult:
    """Per-channel scalar reference of :func:`run_estimation`.

    Identical wear simulation and observation model; the filter and
    smoother run channel by channel through plain float arithmetic
    (:func:`repro.inference.kalman.kalman_filter_scalar`).  Agrees with
    the vectorized path to <= 1e-9 (gated by the shared contract
    suite).
    """
    monitor_result = run_monitor(plan.monitor)
    model, r = _observation_inputs(plan, monitor_result)
    trace = kalman_filter_scalar(
        monitor_result.measured_current_a,
        model.gain_a_per_molar, model.offset_a, r,
        model.a_signal, model.q_signal, model.a_wander, model.q_wander)
    smoothed = (rts_smoother_scalar(trace, model.a_signal,
                                    model.q_signal, model.a_wander,
                                    model.q_wander)
                if plan.smooth else None)
    return _assemble(plan, monitor_result, model, trace, smoothed)


#: The five moments of a filter belief, and of each trace column.
_MOMENTS = ("m1", "m2", "p11", "p12", "p22")


def _estimation_state(plan: EstimationPlan,
                      monitor: SimpleNamespace) -> SimpleNamespace:
    """Estimation carry state around a fresh or restored monitor state:
    the observation model, filter dynamics and an empty filter trace."""
    model = _observation_model(plan.monitor, monitor.wear)
    return SimpleNamespace(
        monitor=monitor,
        model=model,
        dynamics=KalmanDynamics.prepare(
            plan.n_channels, model.a_signal, model.q_signal,
            model.a_wander, model.q_wander),
        trace=KalmanTrace.empty(plan.n_channels, plan.n_samples),
    )


class EstimationKernels(KernelSet):
    """The estimation workload as a kernel set on the execution core.

    The wear simulation and the Kalman filter advance *together*, chunk
    by chunk: each chunk runs the wrapped monitor's physics over
    ``[start, stop)``, inverts the freshly digitized currents through
    the observation model, and starts from the belief the previous chunk
    ended in (its column of the filter trace) — bit-identical
    to one uninterrupted pass, which is what makes the workload
    suspendable (``export_state`` / ``restore_state``) and streamable
    (:class:`repro.serve.StreamSession`).  The smoother, inherently
    offline, runs once in ``finalize`` over the full forward trace.
    """

    name = "estimation"
    plan_type = EstimationPlan
    snapshot_version = 2

    def compile(self, plan: EstimationPlan):
        """One segment chunked like the wrapped wear simulation."""
        return single_segment(self.name, plan.n_channels,
                              plan.n_samples,
                              plan.monitor.chunk_samples)

    def init_state(self, plan: EstimationPlan) -> SimpleNamespace:
        """Monitor carry state, observation model, filter dynamics and
        filter trace."""
        return _estimation_state(plan, _init_monitor_state(plan.monitor))

    def run_chunk(self, plan: EstimationPlan, state, segment,
                  start: int, stop: int) -> None:
        """Simulate and filter the cohort over samples ``[start, stop)``.

        The trajectory mean comes from the observation model, which
        holds it for the whole horizon.  Rail-saturated readings carry
        no amplitude information: they are censored per chunk (infinite
        variance -> pure prediction), sample for sample the same mask
        the batch path applies.  The entering belief is read as views of
        the trace column before the chunk, which the filter never writes.
        """
        model = state.model
        _monitor_chunk(plan.monitor, state.monitor, start, stop,
                       model.mean_molar[:, start:stop])
        measured = state.monitor.last_update["measured_current_a"]
        state.dynamics.filter(
            measured, model.gain_a_per_molar[:, start:stop],
            model.offset_a[:, start:stop], model.reading_variance(measured),
            initial=(KalmanState(*(getattr(state.trace, name)[:, start - 1]
                                   for name in _MOMENTS))
                     if start else None),
            out=state.trace.columns(start, stop))

    def finalize(self, plan: EstimationPlan, state) -> EstimationResult:
        """Smooth (optionally) and score the :class:`EstimationResult`.

        Drops the last chunk's arrays first: only ``stream_update``
        reads them, between chunks.
        """
        state.monitor.last_update = None
        monitor_result = _finalize_monitor(plan.monitor, state.monitor)
        model = state.model
        smoothed = (rts_smoother_batch(state.trace, model.a_signal,
                                       model.q_signal, model.a_wander,
                                       model.q_wander)
                    if plan.smooth else None)
        return _assemble(plan, monitor_result, model, state.trace, smoothed)

    def export_state(self, plan: EstimationPlan, state,
                     cursor: int) -> dict:
        """Serialize the estimation carry state after ``cursor`` samples.

        Nests the wrapped monitor's own snapshot and the prefixes
        ``[:, :cursor]`` of the five filtered moments (the last column
        is the belief the next chunk starts from).  The smoother needs
        the whole forward pass, so the snapshot grows with the cursor,
        unlike a trace-free monitor one: ~200 KB after one day of a
        four-wearer, 5-minute cohort.
        """
        snapshot = snapshot_envelope(self.name, self.snapshot_version,
                                     cursor)
        snapshot.update({
            "n_channels": plan.n_channels,
            "monitor": MONITOR_KERNELS.export_state(
                plan.monitor, state.monitor, cursor),
            "trace": {name: encode_array(
                getattr(state.trace, name)[:, :cursor])
                for name in _MOMENTS},
        })
        return snapshot

    def restore_state(self, plan: EstimationPlan, snapshot):
        """Rebuild ``(state, cursor)`` from an exported snapshot.

        Restores the wrapped monitor's carry state through its own
        kernel set, recomputes the observation model from the plan
        (snapshots never store derived physics), and refills the
        forward-trace prefixes.
        """
        cursor = require_snapshot(snapshot, self.name,
                                  self.snapshot_version, plan.n_samples)
        n = plan.n_channels
        require_keys(snapshot, ("n_channels", "monitor", "trace"),
                     "estimation snapshot")
        if snapshot["n_channels"] != n:
            raise ValueError(
                f"snapshot holds {snapshot['n_channels']} channels, "
                f"plan has {n}")
        trace = require_keys(snapshot["trace"], _MOMENTS,
                             "estimation snapshot trace")
        monitor_state, monitor_cursor = MONITOR_KERNELS.restore_state(
            plan.monitor, snapshot["monitor"])
        if monitor_cursor != cursor:
            raise ValueError(
                f"nested monitor snapshot is at sample {monitor_cursor},"
                f" estimation snapshot at {cursor}")
        state = _estimation_state(plan, monitor_state)
        for name in _MOMENTS:
            getattr(state.trace, name)[:, :cursor] = decode_array(
                trace[name], shape=(n, cursor))
        return state, cursor

    def stream_update(self, plan: EstimationPlan, state, start: int,
                      stop: int) -> dict:
        """The chunk that just ran, as incremental per-sample outputs.

        The monitor's truth / measurement block plus the causal
        reconstruction — the filtered concentration and its posterior
        standard deviation — for ``[start, stop)``.  The smoothed pass
        is offline by nature and only exists in the final result.
        """
        update = dict(MONITOR_KERNELS.stream_update(
            plan.monitor, state.monitor, start, stop))
        mean = state.model.mean_molar[:, start:stop]
        update["filtered_concentration_molar"] = np.maximum(
            mean + state.trace.m1[:, start:stop], 0.0)
        update["filtered_std_molar"] = np.sqrt(
            np.maximum(state.trace.p11[:, start:stop], 0.0))
        return update

    def run_scalar(self, plan: EstimationPlan) -> EstimationResult:
        """Per-channel reference through the scalar filter/smoother."""
        return _run_estimation_scalar(plan)

    def contract_plan(self) -> EstimationPlan:
        """Two glucose wearers over 12 h at 10-min cadence."""
        return EstimationPlan(monitor=MonitorPlan(
            channels=glucose_cohort(2), duration_h=12.0,
            sample_period_s=600.0, chunk_samples=16, seed=3))

    def with_chunk_samples(self, plan: EstimationPlan,
                           chunk_samples: int) -> EstimationPlan:
        """Re-chunk the wrapped wear simulation (the filter itself is
        a single sequential pass)."""
        return replace(plan, monitor=replace(
            plan.monitor, chunk_samples=chunk_samples))

    def contract_fields(self, result: EstimationResult) -> dict:
        """Reconstruction traces, bands and per-channel scores."""
        return {
            "filtered_concentration_molar": Check(
                result.filtered_concentration_molar, atol=1e-9),
            "filtered_std_molar": Check(result.filtered_std_molar,
                                        atol=1e-9),
            "smoothed_concentration_molar": Check(
                result.smoothed_concentration_molar, atol=1e-9),
            "smoothed_std_molar": Check(result.smoothed_std_molar,
                                        atol=1e-9),
            "filtered_rmse_molar": Check(result.filtered_rmse_molar,
                                         atol=1e-12, rtol=1e-9),
            "filtered_mard": Check(result.filtered_mard, atol=1e-9),
        }


#: The registered estimation kernel set (target of ``run_estimation``).
ESTIMATION_KERNELS = register_kernels(EstimationKernels())
