"""Electrochemical impedance spectroscopy (EIS) substrate.

Section 2.3 classifies *impedimetric* biosensors into capacitive and
faradic sub-groups; the measured quantities are the interfacial
capacitance and the charge-transfer resistance.  The standard model is the
Randles equivalent circuit:

``Z(w) = Rs + (Rct + Zw) || C_dl``

with ``Zw`` the Warburg (diffusion) impedance.  Binding events modulate
``Rct`` (faradic sensors) or ``C_dl`` (capacitive sensors); the helpers
here compute spectra, Nyquist geometry and the ``Rct`` shift a faradic
sensor reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RandlesCircuit:
    """Randles equivalent circuit of a biosensing interface.

    Attributes:
        solution_resistance_ohm: series (electrolyte) resistance Rs.
        charge_transfer_resistance_ohm: faradaic resistance Rct.
        double_layer_capacitance_f: interfacial capacitance C_dl.
        warburg_sigma_ohm_rts: Warburg coefficient [ohm/sqrt(s^-1)];
            zero disables the diffusion tail.
    """

    solution_resistance_ohm: float
    charge_transfer_resistance_ohm: float
    double_layer_capacitance_f: float
    warburg_sigma_ohm_rts: float = 0.0

    def __post_init__(self) -> None:
        if self.solution_resistance_ohm < 0:
            raise ValueError("Rs must be >= 0")
        if self.charge_transfer_resistance_ohm <= 0:
            raise ValueError("Rct must be > 0")
        if self.double_layer_capacitance_f <= 0:
            raise ValueError("Cdl must be > 0")
        if self.warburg_sigma_ohm_rts < 0:
            raise ValueError("Warburg coefficient must be >= 0")

    def impedance(self, frequency_hz: np.ndarray | float
                  ) -> np.ndarray | complex:
        """Complex impedance [ohm] at ``frequency_hz`` (> 0)."""
        freq = np.asarray(frequency_hz, dtype=float)
        if np.any(freq <= 0):
            raise ValueError("frequencies must be > 0")
        omega = 2.0 * math.pi * freq
        warburg = (self.warburg_sigma_ohm_rts * (1.0 - 1j)
                   / np.sqrt(omega))
        faradaic = self.charge_transfer_resistance_ohm + warburg
        admittance = 1.0 / faradaic + 1j * omega * self.double_layer_capacitance_f
        value = self.solution_resistance_ohm + 1.0 / admittance
        if np.isscalar(frequency_hz):
            return complex(value)
        return value

    def spectrum(self,
                 f_low_hz: float = 0.1,
                 f_high_hz: float = 1e5,
                 n_points: int = 60) -> tuple[np.ndarray, np.ndarray]:
        """Log-spaced (frequencies, complex impedance) spectrum."""
        if not 0.0 < f_low_hz < f_high_hz:
            raise ValueError("need 0 < f_low < f_high")
        if n_points < 2:
            raise ValueError("need >= 2 points")
        freqs = np.logspace(math.log10(f_low_hz), math.log10(f_high_hz),
                            n_points)
        return freqs, self.impedance(freqs)

    def characteristic_frequency_hz(self) -> float:
        """Apex frequency of the Nyquist semicircle: 1/(2 pi Rct Cdl)."""
        return 1.0 / (2.0 * math.pi
                      * self.charge_transfer_resistance_ohm
                      * self.double_layer_capacitance_f)

    def nyquist_diameter_ohm(self) -> float:
        """Semicircle diameter (= Rct for the ideal Randles circuit)."""
        return self.charge_transfer_resistance_ohm


def binding_rct_shift(baseline: RandlesCircuit,
                      surface_occupancy: float,
                      max_blocking: float = 0.95) -> RandlesCircuit:
    """Return the circuit after target binding blocks the interface.

    A faradic impedimetric immunosensor (Prodromidis [37]) reports the Rct
    increase caused by bound antigen insulating the electrode:

    ``Rct' = Rct / (1 - theta * max_blocking)``
    """
    if not 0.0 <= surface_occupancy <= 1.0:
        raise ValueError("occupancy must be in [0, 1]")
    if not 0.0 < max_blocking < 1.0:
        raise ValueError("max blocking must be in (0, 1)")
    blocked = 1.0 - surface_occupancy * max_blocking
    from dataclasses import replace
    return replace(
        baseline,
        charge_transfer_resistance_ohm=(
            baseline.charge_transfer_resistance_ohm / blocked))
