"""Electrochemical double-layer (capacitive background) model.

Every potential excursion charges the electrode/solution interface; the
resulting non-faradaic current is the dominant background of cyclic
voltammetry and the initial spike of chronoamperometry.  CNT films raise the
double-layer capacitance roughly in proportion to their huge electroactive
area — the same property that boosts the faradaic signal (paper section 2.4)
— so a faithful background model matters when extracting peak heights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DoubleLayer:
    """Series-RC model of the electrode/solution interface.

    Attributes:
        capacitance_per_area: specific double-layer capacitance [F/m^2].
            Typical values: ~0.2 F/m^2 (20 uF/cm^2) for a flat metal,
            1-2 orders of magnitude more for porous CNT films.
        series_resistance: uncompensated solution resistance [ohm].
    """

    capacitance_per_area: float
    series_resistance: float = 100.0

    def __post_init__(self) -> None:
        if self.capacitance_per_area <= 0:
            raise ValueError(
                f"capacitance_per_area must be > 0, got {self.capacitance_per_area}")
        if self.series_resistance < 0:
            raise ValueError(
                f"series_resistance must be >= 0, got {self.series_resistance}")

    def capacitance(self, area_m2: float) -> float:
        """Return the total interfacial capacitance [F] of ``area_m2``."""
        if area_m2 <= 0:
            raise ValueError(f"area must be > 0, got {area_m2}")
        return self.capacitance_per_area * area_m2

    def time_constant(self, area_m2: float) -> float:
        """Return the RC charging time constant [s]."""
        return self.series_resistance * self.capacitance(area_m2)

    def step_transient(self,
                       time: np.ndarray,
                       step_volt: float,
                       area_m2: float) -> np.ndarray:
        """Return the charging transient [A] after a potential step.

        ``i(t) = (dE/Rs) exp(-t/(Rs C))``.  With ``series_resistance == 0``
        the transient is an ideal impulse, which we approximate as zero for
        t > 0 (the charge is delivered instantaneously).
        """
        time = np.asarray(time, dtype=float)
        if np.any(time < 0):
            raise ValueError("time values must be >= 0")
        if self.series_resistance == 0.0:
            return np.zeros_like(time)
        tau = self.time_constant(area_m2)
        return (step_volt / self.series_resistance) * np.exp(-time / tau)
