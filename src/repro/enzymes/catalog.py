"""Catalog of the enzymes used by the paper's biosensor platform.

Table 1 of the paper pairs each target with its probe enzyme:

====================  =======================  =====================
Target                Probe                    Technique
====================  =======================  =====================
glucose               glucose oxidase (GOD)    chronoamperometry
lactate               lactate oxidase (LOD)    chronoamperometry
glutamate             glutamate oxidase (GlOD) chronoamperometry
arachidonic acid      custom CYP (102A1-like)  cyclic voltammetry
Ftorafur              CYP1A2                   cyclic voltammetry
cyclophosphamide      CYP2B6                   cyclic voltammetry
ifosfamide            CYP3A4                   cyclic voltammetry
====================  =======================  =====================

Turnover numbers and Michaelis constants are order-of-magnitude literature
values for the free enzymes; immobilization corrections are applied by
:mod:`repro.enzymes.immobilization`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EnzymeFamily(enum.Enum):
    """Enzyme families used in the platform (paper section 3.1)."""

    OXIDASE = "oxidase"
    CYTOCHROME_P450 = "cytochrome_p450"


@dataclass(frozen=True)
class Enzyme:
    """Kinetic identity of a biosensing enzyme.

    Attributes:
        name: common name (e.g. ``"glucose oxidase"``).
        abbreviation: short form used in the paper (GOD, LOD, GlOD, CYP...).
        ec_number: Enzyme Commission classification.
        family: oxidase or cytochrome P450.
        substrate: the analyte this enzyme recognizes.
        kcat_per_s: turnover number [1/s] of the free enzyme.
        km_molar: Michaelis constant [mol/L] of the free enzyme.
        n_electrons: electrons transferred per catalytic event at the
            electrode (2 for H2O2 oxidation, 1 for CYP heme turnover).
        detected_species: species that actually exchanges electrons with the
            electrode (H2O2 for oxidases, the heme centre for CYPs).
    """

    name: str
    abbreviation: str
    ec_number: str
    family: EnzymeFamily
    substrate: str
    kcat_per_s: float
    km_molar: float
    n_electrons: int
    detected_species: str

    def __post_init__(self) -> None:
        if self.kcat_per_s <= 0:
            raise ValueError(f"{self.name}: kcat must be > 0")
        if self.km_molar <= 0:
            raise ValueError(f"{self.name}: Km must be > 0")
        if self.n_electrons < 1:
            raise ValueError(f"{self.name}: n_electrons must be >= 1")


GLUCOSE_OXIDASE = Enzyme(
    name="glucose oxidase",
    abbreviation="GOD",
    ec_number="1.1.3.4",
    family=EnzymeFamily.OXIDASE,
    substrate="glucose",
    kcat_per_s=700.0,
    km_molar=33e-3,
    n_electrons=2,
    detected_species="hydrogen_peroxide",
)

LACTATE_OXIDASE = Enzyme(
    name="lactate oxidase",
    abbreviation="LOD",
    ec_number="1.1.3.2",
    family=EnzymeFamily.OXIDASE,
    substrate="lactate",
    kcat_per_s=120.0,
    km_molar=0.7e-3,
    n_electrons=2,
    detected_species="hydrogen_peroxide",
)

GLUTAMATE_OXIDASE = Enzyme(
    name="glutamate oxidase",
    abbreviation="GlOD",
    ec_number="1.4.3.11",
    family=EnzymeFamily.OXIDASE,
    substrate="glutamate",
    kcat_per_s=60.0,
    km_molar=0.2e-3,
    n_electrons=2,
    detected_species="hydrogen_peroxide",
)

CYP1A2 = Enzyme(
    name="cytochrome P450 1A2",
    abbreviation="CYP1A2",
    ec_number="1.14.14.1",
    family=EnzymeFamily.CYTOCHROME_P450,
    substrate="ftorafur",
    kcat_per_s=4.0,
    km_molar=50e-6,
    n_electrons=1,
    detected_species="cyp_heme",
)

CYP2B6 = Enzyme(
    name="cytochrome P450 2B6",
    abbreviation="CYP2B6",
    ec_number="1.14.14.1",
    family=EnzymeFamily.CYTOCHROME_P450,
    substrate="cyclophosphamide",
    kcat_per_s=3.0,
    km_molar=600e-6,
    n_electrons=1,
    detected_species="cyp_heme",
)

CYP3A4 = Enzyme(
    name="cytochrome P450 3A4",
    abbreviation="CYP3A4",
    ec_number="1.14.14.1",
    family=EnzymeFamily.CYTOCHROME_P450,
    substrate="ifosfamide",
    kcat_per_s=3.5,
    km_molar=800e-6,
    n_electrons=1,
    detected_species="cyp_heme",
)

#: Customized fatty-acid CYP isoform (CYP102A1-like, supplied by EMPA in the
#: paper) used for arachidonic acid.
CYP_CUSTOM_FATTY_ACID = Enzyme(
    name="custom fatty-acid cytochrome P450",
    abbreviation="custom-CYP",
    ec_number="1.14.14.1",
    family=EnzymeFamily.CYTOCHROME_P450,
    substrate="arachidonic acid",
    kcat_per_s=15.0,
    km_molar=150e-6,
    n_electrons=1,
    detected_species="cyp_heme",
)

ALL_ENZYMES: tuple[Enzyme, ...] = (
    GLUCOSE_OXIDASE,
    LACTATE_OXIDASE,
    GLUTAMATE_OXIDASE,
    CYP1A2,
    CYP2B6,
    CYP3A4,
    CYP_CUSTOM_FATTY_ACID,
)

_BY_NAME = {enzyme.name: enzyme for enzyme in ALL_ENZYMES}
_BY_ABBREVIATION = {enzyme.abbreviation: enzyme for enzyme in ALL_ENZYMES}


def enzyme_by_name(name: str) -> Enzyme:
    """Look up an enzyme by full name or paper abbreviation.

    Raises ``KeyError`` with the available names when not found.
    """
    if name in _BY_NAME:
        return _BY_NAME[name]
    if name in _BY_ABBREVIATION:
        return _BY_ABBREVIATION[name]
    available = sorted(_BY_NAME) + sorted(_BY_ABBREVIATION)
    raise KeyError(f"unknown enzyme {name!r}; available: {available}")
