"""Readout-electronics substrate (paper sections 1 and 2.5).

The paper argues that integrating the electronics with the biosensor is the
route to better signal-to-noise ratio — "signals are weak while the noise is
quite high".  This package models the full acquisition chain a CMOS
front-end implements: transimpedance amplifier,
noise sources (thermal / shot / flicker), anti-alias filtering and a SAR
ADC.  The limit of detection reported by the calibration pipeline emerges
from this chain's noise floor.
"""

from repro.instrument.noise import (
    NoiseModel,
    thermal_current_noise_density,
    flicker_corner_rms,
)
from repro.instrument.tia import TransimpedanceAmplifier
from repro.instrument.adc import SarAdc
from repro.instrument.filters import AnalogLowPass
from repro.instrument.chain import (
    AcquisitionChain,
    AcquiredTrace,
    BatchAcquiredTrace,
)
from repro.instrument.multiplexer import ChannelMultiplexer

__all__ = [
    "NoiseModel",
    "thermal_current_noise_density",
    "flicker_corner_rms",
    "TransimpedanceAmplifier",
    "SarAdc",
    "AnalogLowPass",
    "AcquisitionChain",
    "AcquiredTrace",
    "BatchAcquiredTrace",
    "ChannelMultiplexer",
]
