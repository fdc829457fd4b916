"""Electrode geometry: area, perimeter and diffusion regime.

Miniaturization is a central argument of the paper (section 1): smaller
electrodes give faster response, need smaller samples, and — once the
radius becomes comparable to the diffusion layer — enjoy enhanced
edge (radial) diffusion.  The geometry object captures the quantities that
drive those effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ElectrodeGeometry:
    """Planar electrode geometry.

    Attributes:
        shape: ``"disk"`` or ``"rectangle"``.
        area_m2: geometric area [m^2].
        perimeter_m: boundary length [m] (drives edge-diffusion effects).
    """

    shape: str
    area_m2: float
    perimeter_m: float

    def __post_init__(self) -> None:
        if self.shape not in ("disk", "rectangle"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.area_m2 <= 0:
            raise ValueError(f"area must be > 0, got {self.area_m2}")
        if self.perimeter_m <= 0:
            raise ValueError(f"perimeter must be > 0, got {self.perimeter_m}")

    @classmethod
    def disk(cls, diameter_m: float) -> "ElectrodeGeometry":
        """Build a disk electrode of the given diameter."""
        if diameter_m <= 0:
            raise ValueError(f"diameter must be > 0, got {diameter_m}")
        radius = diameter_m / 2.0
        return cls("disk", math.pi * radius ** 2, math.pi * diameter_m)

    @classmethod
    def from_area(cls, area_m2: float) -> "ElectrodeGeometry":
        """Build a disk with the requested area (papers often quote area only)."""
        if area_m2 <= 0:
            raise ValueError(f"area must be > 0, got {area_m2}")
        diameter = 2.0 * math.sqrt(area_m2 / math.pi)
        return cls.disk(diameter)

    @property
    def characteristic_length_m(self) -> float:
        """Equivalent disk radius [m] — the length scale of radial diffusion."""
        return math.sqrt(self.area_m2 / math.pi)

    def steady_state_time_s(self, diffusion_m2_s: float = 7e-10) -> float:
        """Time [s] for the diffusion layer to span the electrode.

        ``t ~ r^2 / D`` — after this, edge diffusion dominates.  Smaller
        electrodes settle faster: the quantitative form of the paper's
        miniaturization claim, exercised by the area-ablation bench.
        """
        if diffusion_m2_s <= 0:
            raise ValueError("diffusion coefficient must be > 0")
        return self.characteristic_length_m ** 2 / diffusion_m2_s
