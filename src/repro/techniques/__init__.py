"""Electrochemical measurement techniques (paper sections 2.3 and 3.1).

Two techniques carry the paper's own results: chronoamperometry at +650 mV
for the oxidase metabolite sensors and cyclic voltammetry for the CYP drug
sensors.
"""

from repro.techniques.base import Measurement, Waveform
from repro.techniques.waveform import (
    constant_potential,
    cyclic_wave,
)
from repro.techniques.chronoamperometry import Chronoamperometry
from repro.techniques.cyclic_voltammetry import CyclicVoltammetry

__all__ = [
    "Measurement",
    "Waveform",
    "constant_potential",
    "cyclic_wave",
    "Chronoamperometry",
    "CyclicVoltammetry",
]
