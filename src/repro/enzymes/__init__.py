"""Enzyme-kinetics substrate: the biological recognition layer.

The paper's sensors use two enzyme families (section 3.1): oxidases
(glucose / lactate / glutamate oxidase) read out chronoamperometrically via
their H2O2 product, and cytochrome P450 isoforms (drug sensing) read out by
cyclic voltammetry through direct electron transfer.  This package models
their solution kinetics, the immobilized-layer behaviour on CNT films, and
the non-idealities (inhibition, denaturation) exercised by the extended
tests and examples.
"""

from repro.enzymes.michaelis_menten import (
    michaelis_menten_rate,
    fractional_deviation_from_linearity,
    linear_range_upper,
    km_for_linear_range,
)
from repro.enzymes.kinetics import ping_pong_rate
from repro.enzymes.catalog import (
    Enzyme,
    EnzymeFamily,
    GLUCOSE_OXIDASE,
    LACTATE_OXIDASE,
    GLUTAMATE_OXIDASE,
    CYP1A2,
    CYP2B6,
    CYP3A4,
    CYP_CUSTOM_FATTY_ACID,
    enzyme_by_name,
    ALL_ENZYMES,
)
from repro.enzymes.immobilization import ImmobilizedLayer, coverage_from_sensitivity
from repro.enzymes.inhibition import (
    InhibitionType,
    Inhibitor,
    apparent_parameters,
)
from repro.enzymes.stability import EnzymeStability
from repro.enzymes.oxygen import (
    OxygenDependence,
    AIR_SATURATED_O2_MOLAR,
    TISSUE_O2_MOLAR,
)

__all__ = [
    "michaelis_menten_rate",
    "fractional_deviation_from_linearity",
    "linear_range_upper",
    "km_for_linear_range",
    "ping_pong_rate",
    "Enzyme",
    "EnzymeFamily",
    "GLUCOSE_OXIDASE",
    "LACTATE_OXIDASE",
    "GLUTAMATE_OXIDASE",
    "CYP1A2",
    "CYP2B6",
    "CYP3A4",
    "CYP_CUSTOM_FATTY_ACID",
    "enzyme_by_name",
    "ALL_ENZYMES",
    "ImmobilizedLayer",
    "coverage_from_sensitivity",
    "InhibitionType",
    "Inhibitor",
    "apparent_parameters",
    "EnzymeStability",
    "OxygenDependence",
    "AIR_SATURATED_O2_MOLAR",
    "TISSUE_O2_MOLAR",
]
