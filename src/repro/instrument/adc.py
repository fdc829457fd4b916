"""Successive-approximation ADC model.

The paper notes that biosensor signals are analog, "so the integration of
analog-to-digital converters is required as well" (section 2.5).  The SAR
model quantizes the front-end voltage with configurable resolution,
bipolar range and sampling rate, including clipping and optional sample
decimation from a faster analog simulation grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SarAdc:
    """Bipolar successive-approximation ADC.

    Attributes:
        n_bits: resolution (8-24 bits realistic for biosensor readouts).
        v_ref: reference voltage; input range is [-v_ref, +v_ref).
        sampling_rate_hz: conversion rate [Hz].
    """

    n_bits: int = 16
    v_ref: float = 2.5
    sampling_rate_hz: float = 10.0

    def __post_init__(self) -> None:
        if not 4 <= self.n_bits <= 32:
            raise ValueError(f"n_bits must be in [4, 32], got {self.n_bits}")
        if self.v_ref <= 0:
            raise ValueError(f"v_ref must be > 0, got {self.v_ref}")
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling rate must be > 0")

    @property
    def n_codes(self) -> int:
        """Number of quantization levels."""
        return 1 << self.n_bits

    @property
    def lsb_v(self) -> float:
        """Least-significant-bit size [V]."""
        return 2.0 * self.v_ref / self.n_codes

    @property
    def quantization_noise_rms_v(self) -> float:
        """Quantization noise RMS [V]: LSB/sqrt(12)."""
        return self.lsb_v / np.sqrt(12.0)

    def quantize(self, voltage: np.ndarray | float) -> np.ndarray:
        """Convert voltages to signed integer codes (mid-tread, clipped)."""
        volts = np.atleast_1d(np.asarray(voltage, dtype=float))
        codes = np.round(volts / self.lsb_v).astype(np.int64)
        half = self.n_codes // 2
        return np.clip(codes, -half, half - 1)

    def to_voltage(self, codes: np.ndarray) -> np.ndarray:
        """Convert integer codes back to their reconstruction voltages [V]."""
        return np.asarray(codes, dtype=float) * self.lsb_v

    def convert(self, voltage: np.ndarray | float) -> np.ndarray:
        """Quantize and immediately reconstruct (the ADC transfer function)."""
        return self.to_voltage(self.quantize(voltage))

    def sample_trace(self,
                     voltage: np.ndarray,
                     input_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
        """Decimate an analog-rate trace to the ADC rate and convert it.

        Returns ``(sample_times_s, reconstructed_volts)``.  The input rate
        must be an integer multiple of the ADC rate (the simulators arrange
        this); a rate mismatch raises rather than silently resampling.

        Accepts a 1-D trace or a ``(n_cells, n_samples)`` batch; batches
        decimate and convert along the last axis and share one time grid.
        """
        voltage = np.asarray(voltage, dtype=float)
        if voltage.ndim not in (1, 2):
            raise ValueError(
                "voltage trace must be 1-D or (n_cells, n_samples)")
        if input_rate_hz <= 0:
            raise ValueError("input rate must be > 0")
        ratio = input_rate_hz / self.sampling_rate_hz
        decimation = int(round(ratio))
        if decimation < 1 or abs(ratio - decimation) > 1e-9:
            raise ValueError(
                f"input rate {input_rate_hz} Hz is not an integer multiple of "
                f"the ADC rate {self.sampling_rate_hz} Hz")
        sampled = voltage[..., ::decimation]
        times = np.arange(sampled.shape[-1]) * decimation / input_rate_hz
        return times, self.convert(sampled)
