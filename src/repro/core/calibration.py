"""Calibration pipeline: from raw measurements to Table 2 metrics.

Implements the analysis a bench electrochemist performs:

1. measure replicate blanks and a concentration staircase;
2. find the linear region by extending a low-concentration fit until the
   next point deviates beyond the linearity tolerance (Michaelis-Menten
   saturation bends the curve down);
3. report sensitivity (slope normalized by electrode area, in the paper's
   uA mM^-1 cm^-2), the linear range, and the limit of detection
   ``LOD = 3 sigma_blank / slope``.

The same pipeline serves amperometric and voltammetric sensors — only the
single-point measurement differs (:mod:`repro.core.detection`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.detection import measure_point
from repro.core.sensor import Biosensor
from repro.rng import get_rng
from repro.units import (
    micromolar_from_molar,
    millimolar_from_molar,
    sensitivity_paper_from_slope,
)


class CalibrationError(RuntimeError):
    """Raised when a calibration cannot produce a usable line."""


@dataclass(frozen=True)
class CalibrationProtocol:
    """Measurement plan for one calibration.

    Attributes:
        concentrations_molar: non-zero standards, ascending [mol/L].
        n_blanks: number of blank (zero) replicates.
        n_replicates: replicates per standard.
        linearity_tolerance: maximum relative shortfall from the linear
            extrapolation before a point is declared out of range.
        min_r_squared: minimum acceptable coefficient of determination of
            the final linear fit; a dead or noise-dominated sensor fails
            this gate instead of producing silent garbage.
    """

    concentrations_molar: tuple[float, ...]
    n_blanks: int = 5
    n_replicates: int = 3
    linearity_tolerance: float = 0.1
    min_r_squared: float = 0.8

    def __post_init__(self) -> None:
        if len(self.concentrations_molar) < 3:
            raise ValueError("need at least three standards")
        ordered = list(self.concentrations_molar)
        if ordered != sorted(ordered) or min(ordered) <= 0:
            raise ValueError("standards must be positive and ascending")
        if self.n_blanks < 2:
            raise ValueError("need at least two blanks for an LOD")
        if self.n_replicates < 1:
            raise ValueError("need at least one replicate")
        if not 0.0 < self.linearity_tolerance < 1.0:
            raise ValueError("linearity tolerance must be in (0, 1)")
        if not 0.0 <= self.min_r_squared < 1.0:
            raise ValueError("min_r_squared must be in [0, 1)")


#: Standard-concentration grid of the default protocol, as fractions of the
#: expected linear-range upper bound.  Exposed so the registry can predict
#: the regression bias of the extraction analytically.
DEFAULT_RANGE_FRACTIONS: tuple[float, ...] = (
    0.1, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0, 1.25, 1.6)


def default_protocol_for_range(upper_molar: float,
                               n_blanks: int = 5,
                               n_replicates: int = 3) -> CalibrationProtocol:
    """Build a staircase spanning (and overshooting) an expected range.

    Nine standards from 10 % to 160 % of ``upper_molar``: enough density to
    locate the saturation bend on either side of the nominal limit.
    """
    if upper_molar <= 0:
        raise ValueError("upper range must be > 0")
    return CalibrationProtocol(
        concentrations_molar=tuple(
            f * upper_molar for f in DEFAULT_RANGE_FRACTIONS),
        n_blanks=n_blanks,
        n_replicates=n_replicates,
    )


@dataclass(frozen=True)
class CalibrationPoint:
    """Aggregated replicates at one concentration.

    Attributes:
        concentration_molar: standard concentration [mol/L].
        mean_a: mean signal [A].
        std_a: replicate standard deviation [A] (0 for one replicate).
        n: number of replicates.
    """

    concentration_molar: float
    mean_a: float
    std_a: float
    n: int


@dataclass(frozen=True)
class CalibrationResult:
    """Extracted sensor metrics (one Table 2 row).

    Attributes:
        sensor_name: identity of the calibrated sensor.
        points: all measured standards (ascending concentration).
        blank_mean_a / blank_std_a: blank statistics [A].
        slope_a_per_molar: linear-region calibration slope [A/M].
        intercept_a: linear-region intercept [A].
        r_squared: coefficient of determination of the linear fit.
        sensitivity_paper: slope normalized by area [uA mM^-1 cm^-2].
        linear_range_molar: (low, high) linear range [mol/L]; low is the
            limit of quantification, high the last in-tolerance standard.
        lod_molar: limit of detection, 3 sigma_blank / slope [mol/L].
        n_linear_points: standards included in the linear fit.
        area_m2: electrode area used for normalization.
    """

    sensor_name: str
    points: tuple[CalibrationPoint, ...]
    blank_mean_a: float
    blank_std_a: float
    slope_a_per_molar: float
    intercept_a: float
    r_squared: float
    sensitivity_paper: float
    linear_range_molar: tuple[float, float]
    lod_molar: float
    n_linear_points: int
    area_m2: float
    metadata: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line summary in the paper's units."""
        low_mm = millimolar_from_molar(self.linear_range_molar[0])
        high_mm = millimolar_from_molar(self.linear_range_molar[1])
        return (
            f"{self.sensor_name}: "
            f"S = {self.sensitivity_paper:.2f} uA mM^-1 cm^-2, "
            f"linear {low_mm:.3g} - {high_mm:.3g} mM, "
            f"LOD = {micromolar_from_molar(self.lod_molar):.2g} uM "
            f"(R^2 = {self.r_squared:.4f})")


def run_calibration(sensor: Biosensor,
                    protocol: CalibrationProtocol,
                    rng: np.random.Generator | None = None,
                    ) -> CalibrationResult:
    """Execute a full calibration of ``sensor`` under ``protocol``.

    Raises:
        CalibrationError: when the fitted slope is non-positive or fewer
            than three standards stay within the linear tolerance.
    """
    rng = get_rng(rng)

    blanks = np.array([measure_point(sensor, 0.0, rng)
                       for __ in range(protocol.n_blanks)])
    blank_mean = float(np.mean(blanks))
    blank_std = float(np.std(blanks, ddof=1))

    points: list[CalibrationPoint] = []
    for concentration in protocol.concentrations_molar:
        replicates = np.array([measure_point(sensor, concentration, rng)
                               for __ in range(protocol.n_replicates)])
        std = float(np.std(replicates, ddof=1)) if replicates.size > 1 else 0.0
        points.append(CalibrationPoint(
            concentration_molar=concentration,
            mean_a=float(np.mean(replicates)),
            std_a=std,
            n=replicates.size,
        ))

    return extract_calibration_result(sensor, protocol, points,
                                      blank_mean, blank_std)


def extract_calibration_result(sensor: Biosensor,
                               protocol: CalibrationProtocol,
                               points: list[CalibrationPoint],
                               blank_mean: float,
                               blank_std: float,
                               metadata: dict | None = None,
                               ) -> CalibrationResult:
    """Turn measured standards + blank statistics into Table 2 metrics.

    The analysis half of :func:`run_calibration`, shared with the batch
    engine (:mod:`repro.engine`): linear-region selection, slope fit with
    quality gates, sensitivity / range / LOD extraction.  ``points`` must
    be in ascending concentration order.

    Raises:
        CalibrationError: on a non-positive or insignificant slope, an
            R^2 below the protocol gate, or fewer than three in-tolerance
            standards.
    """
    included = _linear_region(points, blank_mean,
                              protocol.linearity_tolerance, blank_std)
    if len(included) < 3:
        raise CalibrationError(
            f"{sensor.name}: only {len(included)} standards in the linear "
            "region; calibration unusable")

    x = np.array([0.0] + [p.concentration_molar for p in included])
    y = np.array([blank_mean] + [p.mean_a for p in included])
    slope, intercept = np.polyfit(x, y, 1)
    if slope <= 0:
        raise CalibrationError(
            f"{sensor.name}: non-positive calibration slope {slope:.3g}")
    predictions = slope * x + intercept
    total = float(np.sum((y - np.mean(y)) ** 2))
    residual = float(np.sum((y - predictions) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 0.0
    if r_squared < protocol.min_r_squared:
        raise CalibrationError(
            f"{sensor.name}: linear fit R^2 = {r_squared:.3f} below the "
            f"{protocol.min_r_squared} quality gate")
    if x.size > 2:
        residual_variance = residual / (x.size - 2)
        slope_se = np.sqrt(residual_variance
                           / np.sum((x - np.mean(x)) ** 2))
        if slope < 3.0 * slope_se:
            raise CalibrationError(
                f"{sensor.name}: slope {slope:.3g} not significant "
                f"(SE {slope_se:.3g}); sensor gives no usable response")

    lod = 3.0 * blank_std / slope
    loq = 10.0 * blank_std / slope
    linear_high = included[-1].concentration_molar
    linear_low = min(loq, linear_high)

    combined_metadata = {"protocol": protocol}
    if metadata:
        combined_metadata.update(metadata)
    return CalibrationResult(
        sensor_name=sensor.name,
        points=tuple(points),
        blank_mean_a=blank_mean,
        blank_std_a=blank_std,
        slope_a_per_molar=float(slope),
        intercept_a=float(intercept),
        r_squared=float(r_squared),
        sensitivity_paper=sensitivity_paper_from_slope(
            float(slope), sensor.area_m2),
        linear_range_molar=(float(linear_low), float(linear_high)),
        lod_molar=float(lod),
        n_linear_points=len(included),
        area_m2=sensor.area_m2,
        metadata=combined_metadata,
    )


def _linear_region(points: list[CalibrationPoint],
                   blank_mean: float,
                   tolerance: float,
                   blank_std: float = 0.0) -> list[CalibrationPoint]:
    """Select the standards forming the linear region.

    A reference line is anchored on the blank and the lowest two
    standards (where Michaelis-Menten curvature is negligible); subsequent
    standards stay in the region while their relative shortfall from the
    reference extrapolation is within ``tolerance``.  Saturation always
    bends the curve *below* the line, so the criterion is one-sided; the
    first out-of-tolerance standard terminates the region (no gaps).

    The criterion is noise-aware: a candidate is only declared out of
    range when its shortfall exceeds the tolerance by more than twice its
    own standard error (sensors whose standards sit near the LOD would
    otherwise terminate the region on pure measurement noise).
    """
    if len(points) <= 2:
        return list(points)
    anchor = points[:2]
    x = np.array([0.0] + [p.concentration_molar for p in anchor])
    y = np.array([blank_mean] + [p.mean_a for p in anchor])
    slope, intercept = np.polyfit(x, y, 1)
    included = list(anchor)
    for candidate in points[2:]:
        predicted = slope * candidate.concentration_molar + intercept
        scale = abs(predicted - blank_mean)
        if scale == 0.0:
            break
        candidate_sem = candidate.std_a / np.sqrt(max(candidate.n, 1))
        # The blank std estimates the per-measurement noise floor, which
        # also rides on every standard (repeatability-dominated sensors).
        noise_allowance = 2.0 * (candidate_sem + blank_std) / scale
        shortfall = (predicted - candidate.mean_a) / scale
        if shortfall > tolerance + noise_allowance:
            break
        included.append(candidate)
    return included
