"""Redox species and couples used by the sensor simulations.

A :class:`RedoxCouple` bundles the thermodynamic and transport parameters of
an O + n e- <-> R half reaction.  The couples defined here are the ones that
actually carry current in the paper's sensors:

* ``HYDROGEN_PEROXIDE`` — the oxidase product detected at +650 mV in the
  chronoamperometric metabolite sensors (glucose, lactate, glutamate);
* ``CYP_HEME`` — the immobilized cytochrome P450 heme centre whose direct
  electron transfer produces the cyclic-voltammetry reduction peak used for
  drug sensing;
* ``FERRICYANIDE`` — the classic reversible outer-sphere probe, used for
  solver validation against Randles-Sevcik.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RedoxCouple:
    """Parameters of a one-step redox couple O + n e- <-> R.

    Attributes:
        name: human-readable species name.
        n_electrons: number of electrons transferred per molecule.
        formal_potential: formal potential E0' [V vs. reference].
        diffusion_ox: diffusion coefficient of the oxidized form [m^2/s].
        diffusion_red: diffusion coefficient of the reduced form [m^2/s].
        k0: standard heterogeneous rate constant [m/s] on a bare electrode.
        alpha: cathodic transfer coefficient (0 < alpha < 1).
    """

    name: str
    n_electrons: int
    formal_potential: float
    diffusion_ox: float
    diffusion_red: float
    k0: float
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.n_electrons < 1:
            raise ValueError(
                f"{self.name}: n_electrons must be >= 1, got {self.n_electrons}")
        if self.diffusion_ox <= 0 or self.diffusion_red <= 0:
            raise ValueError(f"{self.name}: diffusion coefficients must be > 0")
        if self.k0 <= 0:
            raise ValueError(f"{self.name}: k0 must be > 0, got {self.k0}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"{self.name}: alpha must be in (0, 1), got {self.alpha}")

    def with_rate_enhancement(self, factor: float) -> "RedoxCouple":
        """Return a copy with ``k0`` multiplied by ``factor``.

        Carbon-nanotube films enhance heterogeneous electron transfer (paper
        section 2.4); :mod:`repro.nano.film` applies the enhancement through
        this method so the couple itself stays immutable.
        """
        if factor <= 0:
            raise ValueError(f"enhancement factor must be > 0, got {factor}")
        return replace(self, k0=self.k0 * factor)


#: Ferri/ferrocyanide: fast outer-sphere couple used for solver validation.
FERRICYANIDE = RedoxCouple(
    name="ferricyanide",
    n_electrons=1,
    formal_potential=0.225,
    diffusion_ox=7.2e-10,
    diffusion_red=6.7e-10,
    k0=1.0e-4,
    alpha=0.5,
)

#: Hydrogen peroxide oxidation (H2O2 -> O2 + 2 H+ + 2 e-) at ~+0.65 V on
#: Au/CNT; the signal of all oxidase-based sensors in the paper.
HYDROGEN_PEROXIDE = RedoxCouple(
    name="hydrogen_peroxide",
    n_electrons=2,
    formal_potential=0.45,
    diffusion_ox=1.4e-9,
    diffusion_red=1.4e-9,
    k0=5.0e-6,
    alpha=0.5,
)

#: Immobilized cytochrome P450 heme Fe(III)/Fe(II) centre.  The formal
#: potential of CYP adsorbed on MWCNT is around -0.35 V vs Ag/AgCl; direct
#: electron transfer is fast thanks to the nanotubes (paper section 2.4).
CYP_HEME = RedoxCouple(
    name="cyp_heme",
    n_electrons=1,
    formal_potential=-0.35,
    diffusion_ox=1.0e-10,
    diffusion_red=1.0e-10,
    k0=2.0e-5,
    alpha=0.5,
)
