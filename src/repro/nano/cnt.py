"""Carbon nanotube geometry and transport model.

The paper (section 2.4, refs [26], [28], [29]) attributes the CNT advantage
to ballistic multichannel conduction (mean free path two orders of magnitude
beyond macroscale conductors), strong field emission from tips/walls, and
the sidewall's affinity for protein adsorption.  This module captures the
per-tube quantities that the film model aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import ELEMENTARY_CHARGE

#: Planck constant [J s].
_PLANCK = 6.62607015e-34

#: Density of graphitic carbon walls [kg/m^3].
_GRAPHITE_DENSITY = 2100.0

#: Interlayer spacing of MWCNT walls [m] (graphite c-spacing).
_WALL_SPACING = 0.34e-9


def conductance_quantum() -> float:
    """Return the conductance quantum G0 = 2 e^2 / h [S].

    Each conducting channel of a ballistic nanotube contributes one G0
    (about 77.5 uS); multiwall tubes conduct through several walls
    simultaneously (Li et al. [26] measured multichannel ballistic
    transport in MWCNTs).
    """
    return 2.0 * ELEMENTARY_CHARGE ** 2 / _PLANCK


@dataclass(frozen=True)
class CarbonNanotube:
    """A multi-walled carbon nanotube.

    Attributes:
        outer_diameter_m: outer diameter [m] (paper: 10 nm).
        length_m: tube length [m] (paper: 1-2 um).
        n_walls: number of concentric walls.
        mean_free_path_m: ballistic mean free path [m]; ~25 um reported for
            MWCNT — two orders of magnitude beyond copper (~40 nm).
        conducting_channels_per_wall: transport channels contributed per
            participating wall.
    """

    outer_diameter_m: float
    length_m: float
    n_walls: int = 10
    mean_free_path_m: float = 25e-6
    conducting_channels_per_wall: float = 2.0

    def __post_init__(self) -> None:
        if self.outer_diameter_m <= 0 or self.length_m <= 0:
            raise ValueError("diameter and length must be > 0")
        if self.n_walls < 1:
            raise ValueError(f"n_walls must be >= 1, got {self.n_walls}")
        if self.mean_free_path_m <= 0:
            raise ValueError("mean free path must be > 0")
        max_walls = int(self.outer_diameter_m / (2.0 * _WALL_SPACING))
        if self.n_walls > max_walls:
            raise ValueError(
                f"{self.n_walls} walls cannot fit in a "
                f"{self.outer_diameter_m * 1e9:.1f} nm tube (max {max_walls})")

    @property
    def sidewall_area_m2(self) -> float:
        """Outer sidewall area [m^2] — the protein-adsorption surface."""
        return math.pi * self.outer_diameter_m * self.length_m

    @property
    def mass_kg(self) -> float:
        """Tube mass [kg], summing the cylindrical wall shells."""
        total_area = 0.0
        for wall in range(self.n_walls):
            diameter = self.outer_diameter_m - 2.0 * wall * _WALL_SPACING
            if diameter <= 0:
                break
            total_area += math.pi * diameter * self.length_m
        # Each wall is a graphene sheet: area density = rho * spacing.
        return total_area * _GRAPHITE_DENSITY * _WALL_SPACING

    @property
    def specific_surface_area_m2_kg(self) -> float:
        """Outer surface area per unit mass [m^2/kg].

        ~40-60 m^2/g for 10 nm MWCNT — the number that converts a film's
        mass loading into electroactive area.
        """
        return self.sidewall_area_m2 / self.mass_kg

    def ballistic_conductance_s(self) -> float:
        """Ohmic-ballistic conductance [S] of the tube.

        ``G = N_ch G0 / (1 + L/l_mfp)`` — reduces to pure ballistic
        ``N_ch G0`` for short tubes and to diffusive scaling for long ones.
        """
        channels = self.conducting_channels_per_wall * self.n_walls
        return (channels * conductance_quantum()
                / (1.0 + self.length_m / self.mean_free_path_m))

    def resistance_ohm(self) -> float:
        """Tube resistance [ohm] (inverse of the ballistic conductance)."""
        return 1.0 / self.ballistic_conductance_s()


#: The MWCNT used throughout the paper: DropSens, 10 nm diameter, 1-2 um long.
MWCNT_DROPSENS = CarbonNanotube(
    outer_diameter_m=10e-9,
    length_m=1.5e-6,
    n_walls=10,
)
