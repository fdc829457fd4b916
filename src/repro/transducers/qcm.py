"""Quartz crystal microbalance (QCM) biosensor model.

Section 2.3: "Piezoelectric biosensors typically detect mass variation ...
once the sensing element binds the target, the mass of the system varies
and shifts the resonance frequency."  The Sauerbrey equation converts the
bound areal mass into the frequency shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Density of quartz [kg/m^3].
_QUARTZ_DENSITY = 2648.0

#: Shear modulus of AT-cut quartz [Pa].
_QUARTZ_SHEAR_MODULUS = 2.947e10


def sauerbrey_shift_hz(fundamental_hz: float,
                       areal_mass_kg_m2: float) -> float:
    """Sauerbrey frequency shift [Hz] (negative for added mass).

    ``df = -2 f0^2 dm / sqrt(rho_q mu_q)``
    """
    if fundamental_hz <= 0:
        raise ValueError("fundamental frequency must be > 0")
    if areal_mass_kg_m2 < 0:
        raise ValueError("areal mass must be >= 0")
    return (-2.0 * fundamental_hz ** 2 * areal_mass_kg_m2
            / math.sqrt(_QUARTZ_DENSITY * _QUARTZ_SHEAR_MODULUS))


@dataclass(frozen=True)
class QuartzCrystalMicrobalance:
    """QCM immunosensor: antibody layer on a quartz disk.

    Attributes:
        fundamental_hz: crystal fundamental (5-10 MHz typical).
        receptor_density_m2: antibody sites per area [1/m^2].
        target_mass_kg: mass of one bound target molecule [kg]
            (150 kDa IgG: ~2.5e-22 kg).
        kd_molar: binding dissociation constant [mol/L].
        noise_hz: frequency-readout resolution (1 sigma) [Hz].
    """

    fundamental_hz: float = 10e6
    receptor_density_m2: float = 2e15
    target_mass_kg: float = 2.5e-22
    kd_molar: float = 5e-9
    noise_hz: float = 1.0

    def __post_init__(self) -> None:
        if self.fundamental_hz <= 0:
            raise ValueError("fundamental must be > 0")
        if self.receptor_density_m2 <= 0:
            raise ValueError("receptor density must be > 0")
        if self.target_mass_kg <= 0:
            raise ValueError("target mass must be > 0")
        if self.kd_molar <= 0:
            raise ValueError("Kd must be > 0")
        if self.noise_hz < 0:
            raise ValueError("noise must be >= 0")

    def bound_mass_kg_m2(self, concentration_molar: float) -> float:
        """Bound areal mass [kg/m^2] at equilibrium."""
        if concentration_molar < 0:
            raise ValueError("concentration must be >= 0")
        occupancy = concentration_molar / (self.kd_molar
                                           + concentration_molar)
        return self.receptor_density_m2 * occupancy * self.target_mass_kg

    def frequency_shift_hz(self,
                           concentration_molar: float,
                           rng: np.random.Generator | None = None) -> float:
        """Measured frequency shift [Hz] (negative; noisy when rng given)."""
        shift = sauerbrey_shift_hz(
            self.fundamental_hz, self.bound_mass_kg_m2(concentration_molar))
        if rng is not None and self.noise_hz > 0:
            shift += float(rng.normal(0.0, self.noise_hz))
        return shift

    def limit_of_detection_molar(self) -> float:
        """LOD [mol/L]: concentration giving a 3-sigma frequency shift."""
        full_scale = abs(sauerbrey_shift_hz(
            self.fundamental_hz,
            self.receptor_density_m2 * self.target_mass_kg))
        threshold = 3.0 * self.noise_hz
        if threshold >= full_scale:
            return float("inf")
        fraction = threshold / full_scale
        return self.kd_molar * fraction / (1.0 - fraction)
