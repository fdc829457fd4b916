"""Michaelis-Menten kinetics and linear-range analysis.

The calibration-curve shape of every enzyme biosensor in the paper is
governed by Michaelis-Menten saturation: the response is linear while the
substrate concentration is well below the apparent Km, then bends over.
The linear range reported in Table 2 is therefore a direct window onto the
apparent Km of each immobilized enzyme — the inversion used by the sensor
registry (see DESIGN.md section 2).
"""

from __future__ import annotations

import numpy as np


def michaelis_menten_rate(concentration_molar: np.ndarray | float,
                          vmax: float,
                          km_molar: float) -> np.ndarray | float:
    """Return the reaction rate ``v = Vmax C / (Km + C)``.

    ``vmax`` may be expressed in any rate unit (mol/s, mol/(m^2 s), A);
    the returned value carries the same unit.  ``concentration_molar`` may
    be a scalar or array and must be non-negative.
    """
    if vmax < 0:
        raise ValueError(f"Vmax must be >= 0, got {vmax}")
    if km_molar <= 0:
        raise ValueError(f"Km must be > 0, got {km_molar}")
    conc = np.asarray(concentration_molar, dtype=float)
    if np.any(conc < 0):
        raise ValueError("concentrations must be >= 0")
    value = vmax * conc / (km_molar + conc)
    if np.isscalar(concentration_molar):
        return float(value)
    return value


def fractional_deviation_from_linearity(concentration_molar: float,
                                        km_molar: float) -> float:
    """Return the relative shortfall of the MM rate vs. the linear extrapolation.

    ``1 - v(C)/(slope*C) = C/(Km + C)`` — a monotonically increasing
    function of concentration, 0 at C = 0 and 0.5 at C = Km.
    """
    if km_molar <= 0:
        raise ValueError(f"Km must be > 0, got {km_molar}")
    if concentration_molar < 0:
        raise ValueError("concentration must be >= 0")
    return concentration_molar / (km_molar + concentration_molar)


def linear_range_upper(km_molar: float, tolerance: float = 0.1) -> float:
    """Return the highest concentration with deviation <= ``tolerance``.

    Solving ``C/(Km + C) = tolerance`` gives ``C = Km tol/(1 - tol)``.
    With the default 10 % criterion the linear range ends at ``Km/9``.
    """
    if km_molar <= 0:
        raise ValueError(f"Km must be > 0, got {km_molar}")
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    return km_molar * tolerance / (1.0 - tolerance)


def km_for_linear_range(upper_molar: float, tolerance: float = 0.1) -> float:
    """Invert :func:`linear_range_upper`: the Km implied by a linear range.

    This is how the registry converts Table 2 linear ranges into apparent
    Michaelis constants: ``Km = U (1 - tol)/tol`` (9x the upper limit at the
    default 10 % criterion).
    """
    if upper_molar <= 0:
        raise ValueError(f"upper limit must be > 0, got {upper_molar}")
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    return upper_molar * (1.0 - tolerance) / tolerance
