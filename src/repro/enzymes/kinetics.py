"""Enzyme kinetics: the ping-pong mechanism.

Oxidases follow a ping-pong bi-bi mechanism with molecular oxygen as the
second substrate; under oxygen-rich conditions this collapses to the
Michaelis-Menten form used elsewhere, but the full expression lets the
examples explore oxygen-limited regimes (relevant to implanted sensors).
"""

from __future__ import annotations


def ping_pong_rate(substrate_molar: float,
                   oxygen_molar: float,
                   kcat_per_s: float,
                   enzyme_molar: float,
                   km_substrate_molar: float,
                   km_oxygen_molar: float) -> float:
    """Return the ping-pong bi-bi rate [mol/(L s)].

    ``v = kcat E / (1 + Km_S/S + Km_O2/O2)``

    As ``oxygen_molar -> inf`` this tends to the Michaelis-Menten rate with
    the substrate alone, which the tests assert.
    """
    if min(kcat_per_s, enzyme_molar) < 0:
        raise ValueError("kcat and enzyme concentration must be >= 0")
    if km_substrate_molar <= 0 or km_oxygen_molar <= 0:
        raise ValueError("Michaelis constants must be > 0")
    if substrate_molar < 0 or oxygen_molar < 0:
        raise ValueError("concentrations must be >= 0")
    if substrate_molar == 0.0 or oxygen_molar == 0.0:
        return 0.0
    denominator = (1.0 + km_substrate_molar / substrate_molar
                   + km_oxygen_molar / oxygen_molar)
    return kcat_per_s * enzyme_molar / denominator
