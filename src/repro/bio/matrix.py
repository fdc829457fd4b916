"""Sample matrices: buffer, serum, cell-culture medium.

A matrix bundles the interferent cocktail, a fouling-driven sensitivity
drift and the dissolved-oxygen level (co-substrate of the oxidases).  The
examples run the same sensor against different matrices to show why
real-fluid operation is harder than buffer calibration — the gap the
paper's Nafion films and integrated readout aim to close.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bio.interference import (
    ASCORBATE,
    PARACETAMOL,
    URATE,
    Interferent,
)


@dataclass(frozen=True)
class SampleMatrix:
    """A measurement matrix.

    Attributes:
        name: matrix identity.
        interferents: electroactive components present.
        fouling_rate_per_hour: fractional sensitivity loss per hour from
            protein adsorption on the electrode.
        oxygen_molar: dissolved O2 [mol/L] (air-saturated water: ~0.25 mM).
        baseline_drift_a_per_hour_per_m2: slow additive baseline drift
            normalized by electrode area.
    """

    name: str
    interferents: tuple[Interferent, ...] = field(default_factory=tuple)
    fouling_rate_per_hour: float = 0.0
    oxygen_molar: float = 0.25e-3
    baseline_drift_a_per_hour_per_m2: float = 0.0

    def __post_init__(self) -> None:
        if self.fouling_rate_per_hour < 0:
            raise ValueError("fouling rate must be >= 0")
        if self.oxygen_molar < 0:
            raise ValueError("oxygen level must be >= 0")

    def sensitivity_retention_batch(self,
                                    elapsed_hours: "np.ndarray",
                                    ) -> "np.ndarray":
        """Fouling retention over an array of elapsed times, vectorized.

        Batch-shaped kernel following the engine convention: exponential
        decay ``exp(-rate * t)`` evaluated shape-preservingly (e.g. on a
        ``(n_channels, n_samples)`` wear-time block).
        :meth:`repro.core.longterm.DriftBudget.sensitivity_retention_batch`
        composes the same fouling rate with enzyme decay into the fused
        exponent the streaming monitor consumes.

        Args:
            elapsed_hours: elapsed times [h], any shape.

        Returns:
            Multiplicative sensitivity factors, same shape.
        """
        times = np.asarray(elapsed_hours, dtype=float)
        if np.any(times < 0):
            raise ValueError("elapsed time must be >= 0")
        return np.exp(-self.fouling_rate_per_hour * times)

    def sensitivity_retention(self, elapsed_hours: float) -> float:
        """Multiplicative sensitivity factor after ``elapsed_hours`` of fouling.

        Thin scalar wrapper over :meth:`sensitivity_retention_batch`.
        """
        return float(
            self.sensitivity_retention_batch(np.asarray(elapsed_hours)))

    def baseline_drift_batch_a(self,
                               area_m2: float,
                               elapsed_hours: "np.ndarray") -> "np.ndarray":
        """Accumulated additive baseline shift [A] over a time block.

        Batch-shaped kernel (shape-preserving in ``elapsed_hours``); the
        streaming monitor gathers the same
        ``baseline_drift_a_per_hour_per_m2 * area`` coefficient per
        channel when fusing it into its chunk evaluation.
        """
        if area_m2 <= 0:
            raise ValueError("area must be > 0")
        times = np.asarray(elapsed_hours, dtype=float)
        if np.any(times < 0):
            raise ValueError("elapsed time must be >= 0")
        return self.baseline_drift_a_per_hour_per_m2 * area_m2 * times

    def baseline_drift_a(self, area_m2: float, elapsed_hours: float) -> float:
        """Accumulated additive baseline shift [A] after ``elapsed_hours``.

        Thin scalar wrapper over :meth:`baseline_drift_batch_a`.
        """
        return float(
            self.baseline_drift_batch_a(area_m2, np.asarray(elapsed_hours)))


#: Clean phosphate buffer: the calibration matrix.
BUFFER = SampleMatrix(name="phosphate buffer")

#: Human serum: full interferent cocktail, significant fouling.
SERUM = SampleMatrix(
    name="human serum",
    interferents=(ASCORBATE, URATE, PARACETAMOL),
    fouling_rate_per_hour=0.01,
    oxygen_molar=0.13e-3,
    baseline_drift_a_per_hour_per_m2=2e-4,
)

#: Neural cell-culture medium: the paper's monitoring scenario [4], [5].
CELL_CULTURE_MEDIUM = SampleMatrix(
    name="cell-culture medium",
    interferents=(ASCORBATE,),
    fouling_rate_per_hour=0.003,
    oxygen_molar=0.20e-3,
    baseline_drift_a_per_hour_per_m2=5e-5,
)
