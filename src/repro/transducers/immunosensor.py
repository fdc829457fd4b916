"""Faradic impedimetric immunosensor (section 2.3, ref [37]).

"The Faradic impedimetric biosensors foresee to couple the antibody with a
redox probe: the measured property is the charge transfer resistance."
Antigen binding blocks the interface; the Rct increase read from the
Nyquist semicircle is the calibration signal.  Built on the Randles model
of :mod:`repro.chem.impedance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.impedance import RandlesCircuit, binding_rct_shift


@dataclass(frozen=True)
class FaradicImmunosensor:
    """Antibody electrode read out by EIS in a redox-probe solution.

    Attributes:
        baseline: Randles circuit of the antibody-modified electrode in
            the probe solution, before any antigen.
        kd_molar: antibody-antigen dissociation constant [mol/L].
        max_blocking: interfacial blocking at full occupancy (0..1).
        rct_noise_ohm: repeatability (1 sigma) of an Rct fit [ohm].
    """

    baseline: RandlesCircuit
    kd_molar: float = 1e-9
    max_blocking: float = 0.9
    rct_noise_ohm: float = 50.0

    def __post_init__(self) -> None:
        if self.kd_molar <= 0:
            raise ValueError("Kd must be > 0")
        if not 0.0 < self.max_blocking < 1.0:
            raise ValueError("max blocking must be in (0, 1)")
        if self.rct_noise_ohm < 0:
            raise ValueError("Rct noise must be >= 0")

    def occupancy(self, concentration_molar: float) -> float:
        """Langmuir antigen occupancy at equilibrium."""
        if concentration_molar < 0:
            raise ValueError("concentration must be >= 0")
        return concentration_molar / (self.kd_molar + concentration_molar)

    def circuit_at(self, concentration_molar: float) -> RandlesCircuit:
        """Randles circuit after exposure to ``concentration_molar``."""
        return binding_rct_shift(self.baseline,
                                 self.occupancy(concentration_molar),
                                 self.max_blocking)

    def rct_shift_ohm(self,
                      concentration_molar: float,
                      rng: np.random.Generator | None = None) -> float:
        """Measured Rct increase over baseline [ohm].

        The quantity an EIS immunoassay reports; noisy when an RNG is
        provided.
        """
        shifted = self.circuit_at(concentration_molar)
        delta = (shifted.charge_transfer_resistance_ohm
                 - self.baseline.charge_transfer_resistance_ohm)
        if rng is not None and self.rct_noise_ohm > 0:
            delta += float(rng.normal(0.0, self.rct_noise_ohm))
        return delta

    def limit_of_detection_molar(self) -> float:
        """LOD [mol/L]: antigen level giving a 3-sigma Rct shift."""
        threshold = 3.0 * self.rct_noise_ohm
        rct0 = self.baseline.charge_transfer_resistance_ohm
        # Solve Rct0 / (1 - theta*B) - Rct0 = threshold for theta.
        blocked_fraction = threshold / (threshold + rct0)
        occupancy = blocked_fraction / self.max_blocking
        if occupancy >= 1.0:
            return float("inf")
        return self.kd_molar * occupancy / (1.0 - occupancy)
