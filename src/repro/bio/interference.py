"""Electroactive interferents.

At the +650 mV working potential of the oxidase sensors, common small
molecules oxidize directly at the electrode and add a spurious anodic
current.  Nafion (a cation-exchange polymer) partially excludes the anionic
interferents — one more reason the paper's films are cast in Nafion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import FARADAY


@dataclass(frozen=True)
class Interferent:
    """An electroactive matrix component.

    Attributes:
        name: compound name.
        typical_molar: typical physiological concentration [mol/L].
        onset_potential_v: potential above which it oxidizes [V].
        rate_m_s: effective heterogeneous oxidation rate at +0.65 V [m/s].
        nafion_rejection: fraction blocked by a Nafion film (anions are
            repelled by the sulfonate groups; 0 = passes freely).
    """

    name: str
    typical_molar: float
    onset_potential_v: float
    rate_m_s: float
    nafion_rejection: float

    def __post_init__(self) -> None:
        if self.typical_molar < 0:
            raise ValueError(f"{self.name}: concentration must be >= 0")
        if self.rate_m_s < 0:
            raise ValueError(f"{self.name}: rate must be >= 0")
        if not 0.0 <= self.nafion_rejection <= 1.0:
            raise ValueError(f"{self.name}: rejection must be in [0, 1]")

    def current_a(self,
                  area_m2: float,
                  potential_v: float,
                  concentration_molar: float | None = None,
                  nafion_film: bool = False,
                  n_electrons: int = 2) -> float:
        """Interference current [A] at ``potential_v`` on ``area_m2``.

        Zero below the onset potential; above it, a mass-transfer-like
        current ``n F A k C`` scaled by Nafion rejection when a film is
        present.
        """
        if area_m2 <= 0:
            raise ValueError("area must be > 0")
        concentration = (self.typical_molar if concentration_molar is None
                         else concentration_molar)
        if concentration < 0:
            raise ValueError("concentration must be >= 0")
        if potential_v < self.onset_potential_v:
            return 0.0
        transmission = (1.0 - self.nafion_rejection) if nafion_film else 1.0
        conc_si = concentration * 1e3
        return n_electrons * FARADAY * area_m2 * self.rate_m_s * conc_si * transmission


ASCORBATE = Interferent(
    name="ascorbate",
    typical_molar=50e-6,
    onset_potential_v=0.20,
    rate_m_s=2.0e-6,
    nafion_rejection=0.9,
)

URATE = Interferent(
    name="urate",
    typical_molar=300e-6,
    onset_potential_v=0.35,
    rate_m_s=8.0e-7,
    nafion_rejection=0.85,
)

PARACETAMOL = Interferent(
    name="paracetamol",
    typical_molar=100e-6,
    onset_potential_v=0.45,
    rate_m_s=1.0e-6,
    nafion_rejection=0.2,  # neutral molecule: Nafion barely helps
)
