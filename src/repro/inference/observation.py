"""Observation-model builder: the monitor's own physics, inverted.

The filter in :mod:`repro.inference.kalman` is only as trustworthy as
its model of how currents arise — so this module does not invent one.
It *re-reads* the exact quantities the streaming monitor composes on its
forward pass (:mod:`repro.engine.monitor`):

* the day-0 calibrated response and its local slope, decayed by the
  channel's :class:`~repro.core.longterm.DriftBudget` retention;
* the deterministic baseline (stationary background plus the matrix's
  linear fouling drift);
* the OU parameters of the physiological noise and the baseline wander
  (``a = exp(-dt/tau)``, per-step innovation variance
  ``sigma^2 (1 - a^2)`` — the exact recursion of
  :func:`repro.signal.drift.ou_process_batch`);
* the per-reading measurement noise
  (:func:`repro.engine.monitor.reading_noise_sigma_a`) combined with
  the SAR-ADC quantization floor referred back to input.

Because every array here is derived from the same plan the simulator
ran, the filter is *consistent by construction*: its innovation
statistics match the data-generating process, which is what makes the
95 % credible intervals actually cover ~95 % of the truth (gated within
[0.90, 0.99] in ``benchmarks/bench_inference.py``).

The sensor response is generally nonlinear (Michaelis-Menten
saturation), so the observation gain is the response's local slope at
the trajectory mean — a linearization that stays accurate because the
stochastic deviations the filter tracks are small against the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Sequence

from repro.analytes.physiological import cohort_mean_molar
from repro.core.sensor import Biosensor
from repro.engine.core import require_row_block
from repro.engine.monitor import (
    MonitorPlan,
    WearParams,
    _row_groups,
    reading_noise_sigma_a,
)


def quantization_sigma_a(sensor: Biosensor) -> float:
    """The ADC quantization floor referred to input current [A].

    ``LSB / sqrt(12)`` in volts, divided by the TIA transimpedance —
    the irreducible per-reading noise even a noiseless channel carries
    through :func:`repro.engine.monitor.digitize_rows`.
    """
    chain = sensor.chain
    return float(chain.adc.lsb_v / np.sqrt(12.0) / chain.tia.gain_v_per_a)


def observation_variance_a2(sensor: Biosensor,
                            add_noise: bool = True) -> float:
    """Per-reading measurement-noise variance of a deployed sensor [A^2].

    The chain noise floor + repeatability sigma both streaming engines
    inject (:func:`~repro.engine.monitor.reading_noise_sigma_a`),
    combined with the quantization floor.  With ``add_noise`` off only
    quantization remains — matching a noise-free simulator run.
    """
    quant = quantization_sigma_a(sensor)
    if not add_noise:
        return quant ** 2
    return float(reading_noise_sigma_a(sensor) ** 2 + quant ** 2)


def rail_censor_level_a(sensor: Biosensor) -> float:
    """Smallest reading magnitude [A] that counts as rail-censored.

    The TIA rail referred to input current, less a 1.5-LSB guard: the
    one definition :func:`rail_censored_mask` and the therapy trough
    filter share.
    """
    chain = sensor.chain
    return ((chain.tia.rail_v - 1.5 * chain.adc.lsb_v)
            / chain.tia.gain_v_per_a)


def rail_censored_mask(sensors: "Sequence[Biosensor]",
                       measured_current_a: np.ndarray) -> np.ndarray:
    """Flag readings pinned at a TIA rail (censored, not measured).

    :func:`repro.engine.monitor.digitize_rows` clips the TIA output at
    ``+-rail_v`` before quantization, so a reading within 1.5 LSB of the
    rail-referred current is indistinguishable from *any* larger true
    current — it carries no usable amplitude information.  The filter
    treats such samples as missing (infinite measurement variance):
    skipping a censored reading is unbiased, while inverting it as if it
    were real injects the rail as a fake measurement.

    Args:
        sensors: one deployed sensor per row (the cohort's chains).
        measured_current_a: digitized readings [A],
            ``(n_rows, n_samples)``.

    Returns:
        Boolean mask, same shape — ``True`` where the reading is
        rail-censored.
    """
    measured = np.asarray(measured_current_a, dtype=float)
    require_row_block("measured", measured, len(sensors))
    return _censored(rail_censor_levels(sensors), measured)


def rail_censor_levels(sensors: "Sequence[Biosensor]") -> np.ndarray:
    """Each row's :func:`rail_censor_level_a` [A], as an ``(n_rows, 1)``
    column a ``(n_rows, n_samples)`` block compares against."""
    return np.array([rail_censor_level_a(sensor) for sensor in sensors]
                    )[:, None]


def _censored(levels: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """Readings at or beyond their row's censor level."""
    return np.abs(measured) >= levels


def response_linearization(sensor: Biosensor,
                           concentration_molar: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Faradaic response and its local slope at the given points.

    The single definition of the linearization every consumer shares
    (the monitor observation model and the therapy trough filter): a
    one-sided finite difference of ``layer.steady_state_current`` with
    a relative step, evaluated at non-negative concentrations only
    (layers reject negative inputs).  Using the layer's *actual*
    response — not its linear-regime sensitivity — keeps the filters
    consistent with whatever saturation the deployed chemistry has.

    Args:
        sensor: the deployed biosensor.
        concentration_molar: linearization points [mol/L], any shape,
            all >= 0.

    Returns:
        ``(response, slope)``: currents [A] and local slopes [A/M],
        both shaped like the input.
    """
    c = np.asarray(concentration_molar, dtype=float)
    if np.any(c < 0):
        raise ValueError("linearization points must be >= 0")
    h = np.maximum(1e-6 * c, 1e-12)
    base = np.asarray(
        sensor.layer.steady_state_current(c, sensor.area_m2), dtype=float)
    bumped = np.asarray(
        sensor.layer.steady_state_current(c + h, sensor.area_m2),
        dtype=float)
    return base, (bumped - base) / h


@dataclass(frozen=True)
class MonitorObservationModel:
    """Everything the filter needs, gathered from one monitor plan.

    All per-sample arrays are ``(n_channels, n_samples)``; per-channel
    arrays are ``(n_channels,)``.

    Attributes:
        time_h: absolute sample times [h], ``(n_samples,)``.
        mean_molar: each channel's deterministic trajectory mean
            [mol/L] — the linearization anchor.
        gain_a_per_molar: time-varying observation gain: local response
            slope at the mean, decayed by the modeled retention.
        offset_a: known deterministic current at the mean [A]: decayed
            faradaic response plus background plus linear baseline
            drift.
        measurement_variance_a2: per-reading noise variance [A^2]
            (chain floor + repeatability + quantization).
        censor_level_a: each channel's rail-censor level [A],
            ``(n_channels, 1)`` (:func:`rail_censor_levels`).
        a_signal / q_signal: AR(1) coefficient and per-step innovation
            variance of the physiological OU noise [mol/L units].
        a_wander / q_wander: same for the baseline-wander OU [A units].
        floor_molar: each trajectory's physical lower clamp [mol/L].
    """

    time_h: np.ndarray
    mean_molar: np.ndarray
    gain_a_per_molar: np.ndarray
    offset_a: np.ndarray
    measurement_variance_a2: np.ndarray
    censor_level_a: np.ndarray
    a_signal: np.ndarray
    q_signal: np.ndarray
    a_wander: np.ndarray
    q_wander: np.ndarray
    floor_molar: np.ndarray

    def reading_variance(self, measured: np.ndarray) -> np.ndarray:
        """Per-reading measurement variance of a ``(n_channels, n)``
        block: the channel's variance, infinite where the reading is
        rail-censored (no amplitude information: pure prediction)."""
        return np.where(_censored(self.censor_level_a, measured), np.inf,
                        self.measurement_variance_a2[:, None])


def monitor_observation_model(plan: MonitorPlan) -> MonitorObservationModel:
    """Build the filter's observation model from a monitor plan.

    Reuses the plan's own physics term by term — trajectory means,
    :class:`~repro.core.longterm.DriftBudget` decay rates, OU noise and
    wander parameters, chain noise, quantization — so a filter driven by
    this model is consistent-by-construction with what
    :func:`repro.engine.monitor.run_monitor` simulated.

    Args:
        plan: the wear simulation whose currents will be inverted.

    Returns:
        The assembled :class:`MonitorObservationModel`.
    """
    return _observation_model(plan, plan.wear_params())


#: Most floats in one block of rows that :func:`_observation_model`
#: linearizes at once.  Rows sharing a sensor object are linearized
#: together, one call per block instead of per row; the cap keeps each
#: block's ``(rows, n_samples)`` temporaries under glibc's 128 KiB mmap
#: threshold, so a long horizon (one row per block) allocates as it did
#: row by row.
LINEARIZE_BLOCK_FLOATS = 16384


def _observation_model(plan: MonitorPlan,
                       wear: WearParams) -> MonitorObservationModel:
    """:func:`monitor_observation_model` from the plan's ``wear``
    parameters, for a caller whose wear state already holds them.

    Every entry is the per-row expression; only the number of rows of
    one sensor evaluated at once varies (:data:`LINEARIZE_BLOCK_FLOATS`).
    """
    n, t = plan.n_channels, plan.n_samples
    time_h = plan.sample_times_h(0, t)
    dt_s = plan.sample_period_s
    channels = plan.channels
    mean = cohort_mean_molar([channel.trajectory for channel in channels],
                             time_h)
    gain = np.empty((n, t))
    offset = np.empty((n, t))
    decay = wear.decay_rate_per_hour[:, None]
    background = wear.background_a[:, None]
    drift = wear.baseline_drift_a_per_hour[:, None]
    by_id = {id(sensor): sensor for sensor in wear.sensors}
    rows_per_block = max(1, LINEARIZE_BLOCK_FLOATS // t)
    for key, group in _row_groups(map(id, wear.sensors)):
        group = np.arange(n)[group]
        for first in range(0, group.size, rows_per_block):
            rows = group[first:first + rows_per_block]
            retention = np.exp(-decay[rows] * time_h)
            response, slope = response_linearization(by_id[key], mean[rows])
            gain[rows] = retention * slope
            offset[rows] = retention * response + (
                background[rows] + drift[rows] * time_h)
    a_signal = np.exp(-dt_s / np.array(
        [channel.trajectory.noise_tau_h * 3600.0 for channel in channels]))
    a_wander = np.exp(-dt_s / wear.wander_tau_s)
    if plan.add_noise:
        noise_sigma = np.array(
            [channel.trajectory.noise_sigma_molar for channel in channels])
        q_signal = noise_sigma ** 2 * (1.0 - a_signal ** 2)
        q_wander = wear.wander_sigma_a ** 2 * (1.0 - a_wander ** 2)
    else:
        q_signal = np.zeros(n)
        q_wander = np.zeros(n)
    return MonitorObservationModel(
        time_h=time_h,
        mean_molar=mean,
        gain_a_per_molar=gain,
        offset_a=offset,
        # Python-float squares, bit for bit observation_variance_a2's:
        # NumPy's ``x ** 2`` is ``x * x``, which can differ from pow().
        measurement_variance_a2=np.array([
            quantization_sigma_a(sensor) ** 2
            + (sigma ** 2 if plan.add_noise else 0.0)
            for sensor, sigma in zip(wear.sensors,
                                     wear.measurement_sigma_a.tolist())]),
        censor_level_a=rail_censor_levels(wear.sensors),
        a_signal=a_signal,
        q_signal=q_signal,
        a_wander=a_wander,
        q_wander=q_wander,
        floor_molar=np.array(
            [channel.trajectory.floor_molar for channel in channels]),
    )
