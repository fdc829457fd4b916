"""Randles-Sevcik relations for linear-sweep and cyclic voltammetry.

These closed-form peak laws serve two purposes in the reproduction:

1. validation — the finite-difference voltammetry engine must reproduce the
   reversible peak current within a few percent (tested);
2. fast analytics — the CYP drug sensors report peak heights, and the
   Randles-Sevcik scaling (ip proportional to sqrt(scan rate) and to
   concentration) is asserted by the property tests.
"""

from __future__ import annotations

import math

from repro.constants import FARADAY, GAS_CONSTANT, STANDARD_TEMPERATURE


def peak_current_reversible(n_electrons: int,
                            area_m2: float,
                            diffusion_m2_s: float,
                            concentration_molar: float,
                            scan_rate_v_s: float,
                            temperature: float = STANDARD_TEMPERATURE) -> float:
    """Return the reversible voltammetric peak current [A].

    ``ip = 0.4463 n F A C sqrt(n F v D / (R T))`` with C in mol/m^3
    internally.  At 25 C this reduces to the familiar
    ``2.69e5 n^{3/2} A D^{1/2} C v^{1/2}`` (A in cm^2, C in mol/cm^3).
    """
    _validate(area_m2, diffusion_m2_s, concentration_molar, scan_rate_v_s)
    conc_si = concentration_molar * 1e3
    inner = (n_electrons * FARADAY * scan_rate_v_s * diffusion_m2_s
             / (GAS_CONSTANT * temperature))
    return 0.4463 * n_electrons * FARADAY * area_m2 * conc_si * math.sqrt(inner)


def peak_separation_reversible(n_electrons: int,
                               temperature: float = STANDARD_TEMPERATURE) -> float:
    """Return the anodic-cathodic peak separation [V] of a reversible couple.

    ``dEp = 2.218 RT/(nF)`` — about 57 mV/n at 25 C.  Larger separations in
    a measured voltammogram diagnose sluggish kinetics; CNT modification
    shrinks the separation toward this limit (paper section 2.4).
    """
    if n_electrons < 1:
        raise ValueError(f"n_electrons must be >= 1, got {n_electrons}")
    return 2.218 * GAS_CONSTANT * temperature / (n_electrons * FARADAY)


def _validate(area_m2: float, diffusion_m2_s: float,
              concentration_molar: float, scan_rate_v_s: float) -> None:
    if area_m2 <= 0:
        raise ValueError(f"area must be > 0, got {area_m2}")
    if diffusion_m2_s <= 0:
        raise ValueError(f"diffusion coefficient must be > 0, got {diffusion_m2_s}")
    if concentration_molar < 0:
        raise ValueError(f"concentration must be >= 0, got {concentration_molar}")
    if scan_rate_v_s <= 0:
        raise ValueError(f"scan rate must be > 0, got {scan_rate_v_s}")
