"""Enzyme stability: operational decay and temperature dependence.

Implanted / point-of-care sensors (the paper's target applications) must
hold their calibration over days.  Activity loss follows first-order
denaturation to a good approximation; its rate accelerates with temperature
following an Arrhenius law.  The drift model in :mod:`repro.bio` composes
this with electrode fouling to produce realistic long-term baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import GAS_CONSTANT, STANDARD_TEMPERATURE


@dataclass(frozen=True)
class EnzymeStability:
    """First-order operational-stability model of an immobilized enzyme.

    Attributes:
        half_life_s: activity half-life at the reference temperature [s].
            CNT immobilization typically *stabilizes* enzymes; half-lives of
            one to several weeks are representative for GOD on MWCNT.
        reference_temperature_k: temperature the half-life was measured at.
        activation_energy_j_mol: Arrhenius activation energy of the
            denaturation process [J/mol] (~80 kJ/mol typical for proteins).
    """

    half_life_s: float
    reference_temperature_k: float = STANDARD_TEMPERATURE
    activation_energy_j_mol: float = 8.0e4

    def __post_init__(self) -> None:
        if self.half_life_s <= 0:
            raise ValueError(f"half-life must be > 0, got {self.half_life_s}")
        if self.reference_temperature_k <= 0:
            raise ValueError("reference temperature must be > 0")
        if self.activation_energy_j_mol < 0:
            raise ValueError("activation energy must be >= 0")

    @property
    def decay_rate_per_s(self) -> float:
        """First-order denaturation rate constant [1/s] at the reference T."""
        return math.log(2.0) / self.half_life_s

    def rates_at(self, temperatures_k: np.ndarray) -> np.ndarray:
        """Arrhenius-scaled decay rates [1/s] at an array of temperatures.

        Batch kernel consumed by the streaming monitor: one operating
        temperature per channel of a cohort, shape-preserving.

        Args:
            temperatures_k: absolute temperatures [K], any shape.

        Returns:
            Decay rate constants [1/s], same shape as the input.
        """
        temps = np.asarray(temperatures_k, dtype=float)
        if np.any(temps <= 0):
            raise ValueError("temperature must be > 0")
        exponent = (-self.activation_energy_j_mol / GAS_CONSTANT
                    * (1.0 / temps - 1.0 / self.reference_temperature_k))
        return self.decay_rate_per_s * np.exp(exponent)

    def rate_at(self, temperature_k: float) -> float:
        """Arrhenius-scaled decay rate [1/s] at ``temperature_k``.

        Thin scalar wrapper over :meth:`rates_at`.
        """
        if temperature_k <= 0:
            raise ValueError(f"temperature must be > 0, got {temperature_k}")
        return float(self.rates_at(np.asarray(temperature_k)))
