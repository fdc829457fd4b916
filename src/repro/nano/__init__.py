"""Nanomaterial substrate (paper section 2.4).

Carbon nanotubes are the paper's central enabling technology: their
ballistic conduction, fast heterogeneous electron transfer and enormous
surface area are what lift the developed sensors above flat-electrode
baselines.  This package models MWCNT films in terms of the three
quantities the sensor model consumes: area enhancement, rate (k0)
enhancement and enzyme-loading capacity.
"""

from repro.nano.cnt import CarbonNanotube, MWCNT_DROPSENS, conductance_quantum
from repro.nano.dispersion import (
    DispersionMedium,
    NAFION,
    CHLOROFORM,
    MINERAL_OIL,
    SOL_GEL,
    CHITOSAN,
    POLYURETHANE,
    BARE,
    medium_by_name,
)
from repro.nano.film import NanostructuredFilm

__all__ = [
    "CarbonNanotube",
    "MWCNT_DROPSENS",
    "conductance_quantum",
    "DispersionMedium",
    "NAFION",
    "CHLOROFORM",
    "MINERAL_OIL",
    "SOL_GEL",
    "CHITOSAN",
    "POLYURETHANE",
    "BARE",
    "medium_by_name",
    "NanostructuredFilm",
]
