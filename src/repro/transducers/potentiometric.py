"""Potentiometric (ion-selective electrode) biosensor model.

Section 2.3: "The catalyzed reaction promoted by the enzyme can result in a
variation of the electrode potential, while no current flows. ...
Potentiometric biosensors have been developed for urea detection in blood,
creatinine in biological fluids."  The Nikolsky-Eisenman equation extends
the Nernstian response with interfering-ion selectivity coefficients — the
figure of merit of ion-selective membranes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.constants import STANDARD_TEMPERATURE, nernst_slope


@dataclass(frozen=True)
class IonSelectiveElectrode:
    """Ion-selective electrode with Nikolsky-Eisenman response.

    Attributes:
        ion_charge: charge number of the primary ion (e.g. +1 for NH4+
            from a urease biosensor).
        standard_potential_v: cell potential at unit activity [V].
        selectivity: interferent name -> selectivity coefficient
            ``K_ij`` (smaller is better; 0 = perfectly selective).
        interferent_charges: interferent name -> charge number.
        detection_floor_molar: background level below which the membrane
            response flattens (sets the practical LOD).
    """

    ion_charge: int = 1
    standard_potential_v: float = 0.0
    selectivity: dict[str, float] = field(default_factory=dict)
    interferent_charges: dict[str, int] = field(default_factory=dict)
    detection_floor_molar: float = 1e-7

    def __post_init__(self) -> None:
        if self.ion_charge == 0:
            raise ValueError("ion charge must be non-zero")
        if self.detection_floor_molar <= 0:
            raise ValueError("detection floor must be > 0")
        for name, coefficient in self.selectivity.items():
            if coefficient < 0:
                raise ValueError(f"selectivity for {name!r} must be >= 0")
            if name not in self.interferent_charges:
                raise ValueError(f"missing charge number for {name!r}")

    def slope_v_per_decade(self,
                           temperature_k: float = STANDARD_TEMPERATURE
                           ) -> float:
        """Nernstian slope [V/decade]: 59.2/z mV at 25 C."""
        return (nernst_slope(abs(self.ion_charge), temperature_k)
                * math.log(10.0))

    def effective_activity(self,
                           primary_molar: float,
                           interferents_molar: dict[str, float]
                           | None = None) -> float:
        """Nikolsky-Eisenman effective activity [mol/L].

        ``a_eff = a_i + sum_j K_ij a_j^(z_i/z_j)`` plus the membrane's
        detection floor.
        """
        if primary_molar < 0:
            raise ValueError("primary activity must be >= 0")
        total = primary_molar + self.detection_floor_molar
        for name, level in (interferents_molar or {}).items():
            if level < 0:
                raise ValueError(f"activity of {name!r} must be >= 0")
            if name not in self.selectivity:
                continue
            exponent = self.ion_charge / self.interferent_charges[name]
            total += self.selectivity[name] * level ** exponent
        return total

    def potential_v(self,
                    primary_molar: float,
                    interferents_molar: dict[str, float] | None = None,
                    temperature_k: float = STANDARD_TEMPERATURE) -> float:
        """Electrode potential [V] vs the reference.

        ``E = E0 + (slope/ln10) ln(a_eff)`` with the Nernst sign set by
        the ion charge.
        """
        activity = self.effective_activity(primary_molar, interferents_molar)
        sign = 1.0 if self.ion_charge > 0 else -1.0
        return (self.standard_potential_v
                + sign * self.slope_v_per_decade(temperature_k)
                * math.log10(activity))
