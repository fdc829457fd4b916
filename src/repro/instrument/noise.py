"""Noise sources of the analog front-end.

Three mechanisms dominate an amperometric readout:

* thermal (Johnson) noise of the feedback resistor — white, ``sqrt(4kT/R)``;
* shot noise of the faradaic current — white, ``sqrt(2qI)``;
* flicker (1/f) noise of the transistors — dominant at the sub-hertz
  frequencies where biosensor signals live, and the practical setter of the
  limit of detection.

:class:`NoiseModel` synthesizes time-domain noise with a white floor and a
1/f corner via FFT spectral shaping, reproducible through a seeded
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import BOLTZMANN, STANDARD_TEMPERATURE
from repro.rng import get_rng


def thermal_current_noise_density(resistance_ohm: float,
                                  temperature_k: float = STANDARD_TEMPERATURE
                                  ) -> float:
    """Return the Johnson current-noise density sqrt(4kT/R) [A/sqrt(Hz)].

    A 10 Mohm feedback resistor at 25 C contributes ~41 fA/sqrt(Hz) — large
    resistors are *quieter* in current, which is why picoammeter front-ends
    use huge feedback resistances.
    """
    if resistance_ohm <= 0:
        raise ValueError(f"resistance must be > 0, got {resistance_ohm}")
    if temperature_k <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature_k}")
    return math.sqrt(4.0 * BOLTZMANN * temperature_k / resistance_ohm)


def flicker_corner_rms(white_density: float,
                       corner_hz: float,
                       f_low_hz: float,
                       f_high_hz: float) -> float:
    """RMS [A] of white + 1/f noise integrated over [f_low, f_high].

    PSD model: ``S(f) = S_w^2 (1 + fc/f)``; integration gives
    ``rms^2 = S_w^2 [(f_high - f_low) + fc ln(f_high/f_low)]``.
    """
    if white_density < 0:
        raise ValueError("white density must be >= 0")
    if corner_hz < 0:
        raise ValueError("corner must be >= 0")
    if not 0.0 < f_low_hz < f_high_hz:
        raise ValueError("need 0 < f_low < f_high")
    band = f_high_hz - f_low_hz
    flicker = corner_hz * math.log(f_high_hz / f_low_hz)
    return white_density * math.sqrt(band + flicker)


@dataclass(frozen=True)
class NoiseModel:
    """Synthesizable input-referred current-noise model.

    Attributes:
        white_density_a_rthz: white-noise floor [A/sqrt(Hz)].
        flicker_corner_hz: frequency below which 1/f noise exceeds the white
            floor [Hz]; zero disables flicker shaping.
    """

    white_density_a_rthz: float
    flicker_corner_hz: float = 0.0

    def __post_init__(self) -> None:
        if self.white_density_a_rthz < 0:
            raise ValueError("white density must be >= 0")
        if self.flicker_corner_hz < 0:
            raise ValueError("flicker corner must be >= 0")

    def white_rms(self, bandwidth_hz: float) -> float:
        """White-only RMS [A] in ``bandwidth_hz``."""
        if bandwidth_hz <= 0:
            raise ValueError("bandwidth must be > 0")
        return self.white_density_a_rthz * math.sqrt(bandwidth_hz)

    def rms(self, f_low_hz: float, f_high_hz: float) -> float:
        """Total RMS [A] between ``f_low_hz`` and ``f_high_hz``."""
        if self.flicker_corner_hz == 0.0:
            if not 0.0 <= f_low_hz < f_high_hz:
                raise ValueError("need 0 <= f_low < f_high")
            return self.white_density_a_rthz * math.sqrt(f_high_hz - f_low_hz)
        return flicker_corner_rms(self.white_density_a_rthz,
                                  self.flicker_corner_hz, f_low_hz, f_high_hz)

    def sample(self,
               n_samples: int,
               sampling_rate_hz: float,
               rng: np.random.Generator | None = None) -> np.ndarray:
        """Synthesize ``n_samples`` of noise at ``sampling_rate_hz`` [A].

        White Gaussian noise of the correct density, optionally spectrally
        shaped so the PSD follows ``S_w^2 (1 + fc/f)``.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if sampling_rate_hz <= 0:
            raise ValueError("sampling rate must be > 0")
        rng = get_rng(rng)
        sigma_white = self.white_density_a_rthz * math.sqrt(sampling_rate_hz / 2.0)
        white = rng.normal(0.0, sigma_white, n_samples) if sigma_white > 0 \
            else np.zeros(n_samples)
        if self.flicker_corner_hz == 0.0 or sigma_white == 0.0:
            return white
        return self._shape_flicker(white, sampling_rate_hz)

    def sample_batch(self,
                     n_rows: int,
                     n_samples: int,
                     sampling_rate_hz: float,
                     rngs: "np.random.Generator | list[np.random.Generator] | None" = None,
                     ) -> np.ndarray:
        """Synthesize ``(n_rows, n_samples)`` of noise, one row per cell [A].

        Rows are statistically independent.  ``rngs`` is either one
        generator (rows drawn consecutively from it) or a sequence of
        ``n_rows`` generators, one per row — the latter is what the batch
        engine uses so every cell replays deterministically regardless of
        how a campaign is grouped.  The white draws happen per row but the
        1/f spectral shaping runs vectorized over the whole block.
        """
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows}")
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if sampling_rate_hz <= 0:
            raise ValueError("sampling rate must be > 0")
        sigma_white = self.white_density_a_rthz * math.sqrt(sampling_rate_hz / 2.0)
        if sigma_white == 0.0:
            return np.zeros((n_rows, n_samples))
        if rngs is None:
            rngs = get_rng()
        if isinstance(rngs, np.random.Generator):
            white = rngs.normal(0.0, sigma_white, (n_rows, n_samples))
        else:
            if len(rngs) != n_rows:
                raise ValueError(
                    f"need one generator per row: {len(rngs)} != {n_rows}")
            white = np.stack([rng.normal(0.0, sigma_white, n_samples)
                              for rng in rngs])
        if self.flicker_corner_hz == 0.0:
            return white
        return self._shape_flicker(white, sampling_rate_hz)

    def _shape_flicker(self, white: np.ndarray,
                       sampling_rate_hz: float) -> np.ndarray:
        """Shape white rows so the PSD follows ``S_w^2 (1 + fc/f)``.

        Operates along the last axis, so one call serves both the scalar
        trace and a whole ``(n_rows, n_samples)`` batch.
        """
        n_samples = white.shape[-1]
        spectrum = np.fft.rfft(white, axis=-1)
        freqs = np.fft.rfftfreq(n_samples, d=1.0 / sampling_rate_hz)
        shaping = np.ones_like(freqs)
        nonzero = freqs > 0
        shaping[nonzero] = np.sqrt(1.0 + self.flicker_corner_hz / freqs[nonzero])
        shaping[0] = 0.0  # no DC noise power (offset handled separately)
        return np.fft.irfft(spectrum * shaping, n=n_samples, axis=-1)
