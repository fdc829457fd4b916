"""Cottrell transient for potential-step chronoamperometry.

After a potential step that fully depletes the electroactive species at the
electrode surface, the diffusion-limited current decays as 1/sqrt(t).  The
paper's oxidase sensors are read out chronoamperometrically at +650 mV; each
substrate addition produces a Cottrell-like transient that relaxes to the
enzymatic steady state simulated in :mod:`repro.techniques.chronoamperometry`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import FARADAY


def cottrell_current(time: np.ndarray | float,
                     n_electrons: int,
                     area_m2: float,
                     concentration_molar: float,
                     diffusion_m2_s: float) -> np.ndarray | float:
    """Return the Cottrell current [A] at ``time`` [s] after the step.

    ``i(t) = n F A C sqrt(D / (pi t))`` with C converted from mol/L to
    mol/m^3 internally.  ``time`` may be a scalar or array; zeros or negative
    times are invalid because the expression diverges.
    """
    if area_m2 <= 0:
        raise ValueError(f"area must be positive, got {area_m2}")
    if concentration_molar < 0:
        raise ValueError(f"concentration must be >= 0, got {concentration_molar}")
    if diffusion_m2_s <= 0:
        raise ValueError(f"diffusion coefficient must be > 0, got {diffusion_m2_s}")
    time_arr = np.asarray(time, dtype=float)
    if np.any(time_arr <= 0):
        raise ValueError("Cottrell current diverges at t <= 0")
    conc_si = concentration_molar * 1e3  # mol/m^3
    value = (n_electrons * FARADAY * area_m2 * conc_si
             * np.sqrt(diffusion_m2_s / (math.pi * time_arr)))
    if np.isscalar(time):
        return float(value)
    return value


def cottrell_charge(time: float,
                    n_electrons: int,
                    area_m2: float,
                    concentration_molar: float,
                    diffusion_m2_s: float) -> float:
    """Return the integrated Cottrell charge [C] up to ``time`` [s].

    ``Q(t) = 2 n F A C sqrt(D t / pi)`` (the Anson equation).
    """
    if time < 0:
        raise ValueError(f"time must be >= 0, got {time}")
    conc_si = concentration_molar * 1e3
    return (2.0 * n_electrons * FARADAY * area_m2 * conc_si
            * math.sqrt(diffusion_m2_s * time / math.pi))
