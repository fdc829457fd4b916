"""Explicit unit conversion helpers.

The paper mixes several unit systems: concentrations in mM and uM,
sensitivities in uA mM^-1 cm^-2, electrode areas in mm^2, currents in uA/nA.
Internally the whole library works in strict SI (mol/m^3 for concentration is
avoided — we use mol/L a.k.a. molar — amperes, square metres, volts, seconds).

Rather than a heavyweight unit package, we provide small, explicit, well
tested converters.  Each function name encodes the conversion direction, so a
reader never has to guess ("molar_from_millimolar" reads as "molar <- mM").
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Concentration.  Internal unit: mol/L (molar, M).
# ---------------------------------------------------------------------------


def molar_from_millimolar(value_mm: float) -> float:
    """Convert a concentration in mM to mol/L."""
    return value_mm * 1e-3


def molar_from_micromolar(value_um: float) -> float:
    """Convert a concentration in uM to mol/L."""
    return value_um * 1e-6


def millimolar_from_molar(value_m: float) -> float:
    """Convert a concentration in mol/L to mM."""
    return value_m * 1e3


def micromolar_from_molar(value_m: float) -> float:
    """Convert a concentration in mol/L to uM."""
    return value_m * 1e6


# ---------------------------------------------------------------------------
# Area.  Internal unit: square metre (m^2).
# ---------------------------------------------------------------------------


def square_metre_from_square_millimetre(value_mm2: float) -> float:
    """Convert mm^2 to m^2."""
    return value_mm2 * 1e-6


# ---------------------------------------------------------------------------
# Sensitivity.  Paper unit: uA mM^-1 cm^-2.  Internal: A M^-1 m^-2.
# ---------------------------------------------------------------------------

#: Multiplicative factor from uA mM^-1 cm^-2 to A M^-1 m^-2:
#: 1e-6 A / (1e-3 M) / (1e-4 m^2) = 1e-6 * 1e3 * 1e4 = 1e1.
_SENSITIVITY_SI_PER_PAPER = 1e-6 / 1e-3 / 1e-4


def sensitivity_si_from_paper(value: float) -> float:
    """Convert uA mM^-1 cm^-2 (paper unit) to A M^-1 m^-2 (SI-ish)."""
    return value * _SENSITIVITY_SI_PER_PAPER


def sensitivity_paper_from_si(value: float) -> float:
    """Convert A M^-1 m^-2 back to the paper's uA mM^-1 cm^-2."""
    return value / _SENSITIVITY_SI_PER_PAPER


def slope_ampere_per_molar(sensitivity_paper: float, area_m2: float) -> float:
    """Return the raw calibration slope [A/M] of an electrode.

    ``sensitivity_paper`` is in uA mM^-1 cm^-2 and ``area_m2`` the geometric
    electrode area.  This is the slope a potentiostat actually measures before
    normalizing by area.
    """
    if area_m2 <= 0:
        raise ValueError(f"area_m2 must be positive, got {area_m2}")
    return sensitivity_si_from_paper(sensitivity_paper) * area_m2


def sensitivity_paper_from_slope(slope_a_per_molar: float,
                                 area_m2: float) -> float:
    """Normalize a raw calibration slope [A/M] by area into paper units."""
    if area_m2 <= 0:
        raise ValueError(f"area_m2 must be positive, got {area_m2}")
    return sensitivity_paper_from_si(slope_a_per_molar / area_m2)
