"""Reversible enzyme inhibition models.

Personalized-therapy scenarios involve drug *mixtures*: a second drug that
binds the same CYP isoform acts as an inhibitor and distorts the calibration
of the first (the multi-panel detection challenge the paper cites from
Carrara et al. [9]).  These helpers compute the apparent kinetic parameters
under the three classic reversible inhibition modes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class InhibitionType(enum.Enum):
    """Classic reversible inhibition modes."""

    COMPETITIVE = "competitive"
    UNCOMPETITIVE = "uncompetitive"
    NONCOMPETITIVE = "noncompetitive"


@dataclass(frozen=True)
class Inhibitor:
    """A reversible inhibitor of a biosensing enzyme.

    Attributes:
        name: inhibitor identity (e.g. a co-administered drug).
        ki_molar: inhibition constant [mol/L].
        mode: which apparent parameter(s) the inhibitor distorts.
    """

    name: str
    ki_molar: float
    mode: InhibitionType

    def __post_init__(self) -> None:
        if self.ki_molar <= 0:
            raise ValueError(f"{self.name}: Ki must be > 0, got {self.ki_molar}")

    def saturation_factor(self, concentration_molar: float) -> float:
        """Return ``1 + [I]/Ki`` for ``concentration_molar`` of inhibitor."""
        if concentration_molar < 0:
            raise ValueError("inhibitor concentration must be >= 0")
        return 1.0 + concentration_molar / self.ki_molar


def apparent_parameters(vmax: float,
                        km_molar: float,
                        inhibitor: Inhibitor,
                        inhibitor_molar: float) -> tuple[float, float]:
    """Return (Vmax_app, Km_app) in the presence of an inhibitor.

    * competitive:    Km' = Km (1 + I/Ki),            Vmax' = Vmax
    * uncompetitive:  Km' = Km / (1 + I/Ki),          Vmax' = Vmax / (1 + I/Ki)
    * noncompetitive: Km' = Km,                        Vmax' = Vmax / (1 + I/Ki)

    In every mode the low-concentration sensitivity Vmax'/Km' is reduced or
    unchanged, never increased — asserted by the property tests.
    """
    if vmax < 0:
        raise ValueError(f"Vmax must be >= 0, got {vmax}")
    if km_molar <= 0:
        raise ValueError(f"Km must be > 0, got {km_molar}")
    factor = inhibitor.saturation_factor(inhibitor_molar)
    if inhibitor.mode is InhibitionType.COMPETITIVE:
        return vmax, km_molar * factor
    if inhibitor.mode is InhibitionType.UNCOMPETITIVE:
        return vmax / factor, km_molar / factor
    if inhibitor.mode is InhibitionType.NONCOMPETITIVE:
        return vmax / factor, km_molar
    raise ValueError(f"unhandled inhibition mode {inhibitor.mode}")
