"""Oxygen limitation of oxidase biosensors.

Oxidases consume dissolved O2 as their second substrate (ping-pong
mechanism); in venous blood or implanted tissue the O2 level can fall an
order of magnitude below the glucose level — the classic "oxygen deficit"
of implantable glucose sensors.  This model quantifies the sensitivity
loss and the linear-range distortion, supporting the paper's implanted-
monitoring perspective (sections 1 and 2.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.enzymes.catalog import Enzyme
from repro.enzymes.kinetics import ping_pong_rate

#: Air-saturated aqueous O2 at 25 C [mol/L].
AIR_SATURATED_O2_MOLAR = 0.25e-3

#: Typical subcutaneous-tissue O2 [mol/L] (5 % of air saturation).
TISSUE_O2_MOLAR = 0.02e-3


@dataclass(frozen=True)
class OxygenDependence:
    """Ping-pong oxygen response of an immobilized oxidase.

    Attributes:
        enzyme: the oxidase (uses its kcat and substrate Km).
        km_oxygen_molar: Michaelis constant for O2 [mol/L]
            (GOD: ~0.2 mM — right at air saturation, hence the problem).
        oxygen_permeability: relative O2 supply through the film (membrane
            engineering raises it; 1 = naked film).
    """

    enzyme: Enzyme
    km_oxygen_molar: float = 0.2e-3
    oxygen_permeability: float = 1.0

    def __post_init__(self) -> None:
        if self.km_oxygen_molar <= 0:
            raise ValueError("O2 Km must be > 0")
        if self.oxygen_permeability <= 0:
            raise ValueError("permeability must be > 0")

    def _effective_o2(self, oxygen_molar: float) -> float:
        if oxygen_molar < 0:
            raise ValueError("oxygen level must be >= 0")
        return oxygen_molar * self.oxygen_permeability

    def rate_factor(self,
                    substrate_molar: float,
                    oxygen_molar: float) -> float:
        """Rate relative to oxygen-saturated operation (0..1].

        Ratio of the ping-pong rate at the given O2 to the rate with
        unlimited O2, at the same substrate level.
        """
        if substrate_molar <= 0:
            return 1.0
        effective = self._effective_o2(oxygen_molar)
        if effective == 0.0:
            return 0.0
        limited = ping_pong_rate(
            substrate_molar, effective, self.enzyme.kcat_per_s, 1.0,
            self.enzyme.km_molar, self.km_oxygen_molar)
        unlimited = ping_pong_rate(
            substrate_molar, 1e3, self.enzyme.kcat_per_s, 1.0,
            self.enzyme.km_molar, self.km_oxygen_molar)
        return limited / unlimited

    def midrange_retention(self, oxygen_molar: float) -> float:
        """Signal retention at mid-scale substrate (S = Km).

        A subtlety of ping-pong kinetics: at substrate << Km the O2 term
        is negligible, so the *initial slope* barely suffers; the deficit
        bites at working concentrations, where low O2 caps the rate
        (equivalently, it divides both Vmax and the apparent Km by
        ``1 + Km_O2/[O2]``).  Mid-scale retention is the honest headline
        number for an implanted sensor.
        """
        return self.rate_factor(self.enzyme.km_molar, oxygen_molar)

    def apparent_linear_upper(self,
                              oxygen_molar: float,
                              tolerance: float = 0.1,
                              n_grid: int = 400) -> float:
        """Linear-range upper bound [mol/L] under oxygen limitation.

        Numerically locates where the O2-limited response deviates from
        its initial slope by ``tolerance``; low O2 *shrinks* the usable
        range because the O2 term saturates before the substrate does.
        """
        if not 0.0 < tolerance < 1.0:
            raise ValueError("tolerance must be in (0, 1)")
        effective = self._effective_o2(oxygen_molar)
        if effective == 0.0:
            return 0.0
        substrate = np.logspace(
            np.log10(self.enzyme.km_molar * 1e-4),
            np.log10(self.enzyme.km_molar * 10.0),
            n_grid)
        rates = np.array([
            ping_pong_rate(float(s), effective, self.enzyme.kcat_per_s, 1.0,
                           self.enzyme.km_molar, self.km_oxygen_molar)
            for s in substrate])
        initial_slope = rates[0] / substrate[0]
        deviation = 1.0 - rates / (initial_slope * substrate)
        beyond = np.flatnonzero(deviation > tolerance)
        if beyond.size == 0:
            return float(substrate[-1])
        return float(substrate[beyond[0]])
