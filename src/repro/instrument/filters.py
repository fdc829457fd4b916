"""Analog anti-alias filter model.

Between the transimpedance stage and the ADC sits a low-pass filter that
bounds the noise bandwidth and prevents aliasing.  A Butterworth prototype
is standard; the causal form models the real-time chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import butter, sosfilt


@lru_cache(maxsize=128)
def _butter_sos(order: int, normalized_cutoff: float) -> np.ndarray:
    """Design (and memoize) a Butterworth section cascade.

    The design is pure function of (order, cutoff/Nyquist); acquisition
    chains redo it for every trace, which dominates short-trace filtering,
    so the cascade is cached process-wide.
    """
    return butter(order, normalized_cutoff, output="sos")


@dataclass(frozen=True)
class AnalogLowPass:
    """Butterworth low-pass filter.

    Attributes:
        cutoff_hz: -3 dB corner frequency [Hz].
        order: filter order (1-8).
    """

    cutoff_hz: float
    order: int = 2

    def __post_init__(self) -> None:
        if self.cutoff_hz <= 0:
            raise ValueError(f"cutoff must be > 0, got {self.cutoff_hz}")
        if not 1 <= self.order <= 8:
            raise ValueError(f"order must be in [1, 8], got {self.order}")

    def _sos(self, sampling_rate_hz: float) -> np.ndarray:
        nyquist = sampling_rate_hz / 2.0
        if self.cutoff_hz >= nyquist:
            raise ValueError(
                f"cutoff {self.cutoff_hz} Hz must be below Nyquist "
                f"{nyquist} Hz at fs = {sampling_rate_hz} Hz")
        # Copy: scipy's sosfilt kernel requires a writable buffer, and the
        # cached design is shared between every chain in the process.
        return _butter_sos(self.order, self.cutoff_hz / nyquist).copy()

    def apply(self, x: np.ndarray, sampling_rate_hz: float) -> np.ndarray:
        """Causal filtering (what the analog chain does in real time).

        Filters along the last axis: a 1-D trace or a ``(n_cells,
        n_samples)`` batch both work, the batch in one vectorized pass.
        """
        x = np.asarray(x, dtype=float)
        if sampling_rate_hz <= 0:
            raise ValueError("sampling rate must be > 0")
        return sosfilt(self._sos(sampling_rate_hz), x, axis=-1)

    def noise_bandwidth_hz(self) -> float:
        """Equivalent noise bandwidth [Hz] of the Butterworth response.

        ``ENBW = fc * pi/(2 n sin(pi/(2 n)))`` — 1.571 fc for order 1,
        approaching the brick-wall fc as the order grows.
        """
        n = self.order
        return self.cutoff_hz * np.pi / (2.0 * n * np.sin(np.pi / (2.0 * n)))
