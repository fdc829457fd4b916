"""Electrochemistry substrate: species, interfacial kinetics and transport.

This package implements the textbook electrochemistry the paper's sensors
rest on: Butler-Volmer interfacial kinetics, Cottrell transients,
Randles-Sevcik voltammetric peaks, a finite-difference 1-D diffusion
engine and a double-layer charging model.  The technique
simulators in :mod:`repro.techniques` are thin orchestration layers over
these primitives.
"""

from repro.chem.species import (
    RedoxCouple,
    FERRICYANIDE,
    HYDROGEN_PEROXIDE,
    OXYGEN,
    CYP_HEME,
)
from repro.chem.butler_volmer import (
    rate_constants,
)
from repro.chem.cottrell import (
    cottrell_current,
    cottrell_charge,
)
from repro.chem.randles_sevcik import (
    peak_current_reversible,
    peak_separation_reversible,
)
from repro.chem.diffusion import DiffusionGrid1D, ElectrodeDiffusionSystem
from repro.chem.doublelayer import DoubleLayer
from repro.chem.impedance import (
    RandlesCircuit,
    binding_rct_shift,
)

__all__ = [
    "RedoxCouple",
    "FERRICYANIDE",
    "HYDROGEN_PEROXIDE",
    "OXYGEN",
    "CYP_HEME",
    "rate_constants",
    "cottrell_current",
    "cottrell_charge",
    "peak_current_reversible",
    "peak_separation_reversible",
    "DiffusionGrid1D",
    "ElectrodeDiffusionSystem",
    "DoubleLayer",
    "RandlesCircuit",
    "binding_rct_shift",
]
