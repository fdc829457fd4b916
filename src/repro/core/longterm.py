"""Long-term monitoring: drift budget and recalibration scheduling.

The paper's target application is continuous monitoring of chronic
patients — which means the calibration must survive days of enzyme decay,
electrode fouling and reference wander.  This module budgets those drift
sources, schedules recalibrations so the total error stays within a
clinical tolerance, and applies one-point recalibration corrections.

Every quantitative routine exists in two forms, following the engine
convention established in PR 1: a **batch kernel** operating on whole
``(n_channels, ...)`` arrays — what the streaming monitor
(:mod:`repro.engine.monitor`) consumes while advancing a cohort through
wear-time — and the historical **scalar API**, kept as a thin wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bio.matrix import SampleMatrix
from repro.enzymes.stability import EnzymeStability


@dataclass(frozen=True)
class DriftBudget:
    """Multiplicative sensitivity-drift model for a deployed sensor.

    Attributes:
        stability: enzyme operational-stability model.
        matrix: the sample matrix (fouling rate).
        temperature_k: operating temperature (body temperature for
            implanted/worn sensors accelerates enzyme decay).
    """

    stability: EnzymeStability
    matrix: SampleMatrix
    temperature_k: float = 310.15

    @property
    def decay_rate_per_hour(self) -> float:
        """Combined sensitivity decay rate [1/h].

        Sum of the Arrhenius-scaled enzyme denaturation rate and the
        matrix fouling rate — the single exponent governing
        ``sensitivity_retention``.  The streaming monitor gathers this
        scalar per channel to evaluate whole cohorts in one array pass.
        """
        return (self.stability.rate_at(self.temperature_k) * 3600.0
                + self.matrix.fouling_rate_per_hour)

    def sensitivity_retention_batch(self,
                                    elapsed_hours: np.ndarray) -> np.ndarray:
        """Sensitivity retention over an array of elapsed times.

        Batch kernel: the product of enzyme decay (Arrhenius-scaled) and
        matrix fouling, ``exp(-rate * t)``, evaluated shape-preservingly
        (e.g. on a ``(n_channels, n_samples)`` wear-time block).

        Args:
            elapsed_hours: elapsed wear times [h], any shape.

        Returns:
            Fractions of the initial sensitivity left, same shape.
        """
        times = np.asarray(elapsed_hours, dtype=float)
        if np.any(times < 0):
            raise ValueError("elapsed time must be >= 0")
        return np.exp(-self.decay_rate_per_hour * times)

    def sensitivity_retention(self, elapsed_hours: float) -> float:
        """Fraction of the initial sensitivity left after ``elapsed_hours``.

        Thin scalar wrapper over :meth:`sensitivity_retention_batch`.
        """
        if elapsed_hours < 0:
            raise ValueError("elapsed time must be >= 0")
        return float(
            self.sensitivity_retention_batch(np.asarray(elapsed_hours)))

    def hours_to_error(self, max_relative_error: float) -> float:
        """Hours until the un-recalibrated reading error hits the limit.

        A sensitivity retention of ``r`` biases concentration estimates by
        ``1 - r``; solving ``1 - r(t) = e`` for the combined exponential
        decay gives the recalibration deadline.
        """
        if not 0.0 < max_relative_error < 1.0:
            raise ValueError("error limit must be in (0, 1)")
        rate_per_hour = self.decay_rate_per_hour
        if rate_per_hour == 0.0:
            return float("inf")
        return -math.log(1.0 - max_relative_error) / rate_per_hour

    def recalibration_schedule(self,
                               horizon_hours: float,
                               max_relative_error: float) -> list[float]:
        """Recalibration times [h] keeping the error within the limit.

        Equal-interval schedule at the drift deadline; the sensor is
        assumed fully corrected at each recalibration (one-point spike).
        """
        if horizon_hours <= 0:
            raise ValueError("horizon must be > 0")
        interval = self.hours_to_error(max_relative_error)
        if math.isinf(interval):
            return []
        times = []
        t = interval
        while t < horizon_hours:
            times.append(t)
            t += interval
        return times


def one_point_recalibration_batch(slopes_a_per_molar: np.ndarray,
                                  reference_concentrations_molar: np.ndarray,
                                  measured_signals_a: np.ndarray,
                                  intercepts_a: np.ndarray | float = 0.0,
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """One-point recalibration across a whole cohort of channels.

    Vectorized counterpart of :func:`one_point_recalibration` with the
    field-robust failure semantics a streaming monitor needs: a channel
    whose reference measurement implies a non-positive slope (sensor dead,
    reference mis-draw) *keeps its prior slope* and is flagged instead of
    aborting the whole cohort.

    Args:
        slopes_a_per_molar: prior calibration slopes, ``(n_channels,)``.
        reference_concentrations_molar: reference (finger-stick / spiked)
            concentrations per channel [mol/L], > 0.
        measured_signals_a: sensor signals at the reference samples [A].
        intercepts_a: calibration intercepts (scalar broadcasts).

    Returns:
        ``(new_slopes, applied)``: the updated ``(n_channels,)`` slopes
        and a boolean mask of channels whose recalibration was accepted.
    """
    slopes = np.atleast_1d(np.asarray(slopes_a_per_molar, dtype=float))
    references = np.asarray(reference_concentrations_molar, dtype=float)
    if (slopes <= 0).any():
        raise ValueError("prior slopes must be > 0")
    if (references <= 0).any():
        raise ValueError("reference concentrations must be > 0")
    implied = ((np.asarray(measured_signals_a, dtype=float) - intercepts_a)
               / references)
    if implied.shape != slopes.shape:
        # Raises like any failed broadcast when the inputs outgrow slopes.
        implied = np.broadcast_to(implied, slopes.shape)
    applied = implied > 0
    return np.where(applied, implied, slopes), applied


def one_point_recalibration(slope_a_per_molar: float,
                            reference_concentration_molar: float,
                            measured_signal_a: float,
                            intercept_a: float = 0.0) -> float:
    """Return the corrected slope [A/M] from one reference measurement.

    The field protocol: measure a known standard (finger-stick reference,
    spiked sample), attribute the discrepancy to sensitivity drift, and
    rescale the slope:

    ``slope' = (signal - intercept) / C_ref``

    Thin scalar wrapper over :func:`one_point_recalibration_batch`.
    Raises when the implied slope is non-positive (sensor dead or the
    reference measurement failed).
    """
    new_slopes, applied = one_point_recalibration_batch(
        np.array([slope_a_per_molar]),
        np.array([reference_concentration_molar]),
        np.array([measured_signal_a]),
        np.array([intercept_a]))
    if not applied[0]:
        raise ValueError(
            "reference measurement implies a non-positive slope; "
            "recalibration aborted")
    return float(new_slopes[0])
