"""Transimpedance amplifier (current-to-voltage front-end).

The first stage of every amperometric readout: the working-electrode current
flows through a feedback resistor, producing ``V = R_f * I``.  The model
includes single-pole bandwidth limiting, input-referred noise, input offset
current and rail saturation — the non-idealities that shape what the ADC
actually sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.instrument.noise import NoiseModel, thermal_current_noise_density


@dataclass(frozen=True)
class TransimpedanceAmplifier:
    """Single-pole transimpedance amplifier.

    Attributes:
        gain_v_per_a: transimpedance gain (feedback resistance) [V/A].
        bandwidth_hz: -3 dB bandwidth of the closed loop [Hz].
        rail_v: output saturation (symmetric, +-rail) [V].
        input_noise: input-referred current-noise model; defaults to the
            Johnson noise of the feedback resistor with a 1 Hz 1/f corner.
        offset_current_a: input offset (bias) current [A].
    """

    gain_v_per_a: float
    bandwidth_hz: float = 1000.0
    rail_v: float = 2.5
    input_noise: NoiseModel | None = field(default=None)
    offset_current_a: float = 0.0

    def __post_init__(self) -> None:
        if self.gain_v_per_a <= 0:
            raise ValueError(f"gain must be > 0, got {self.gain_v_per_a}")
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth_hz}")
        if self.rail_v <= 0:
            raise ValueError(f"rail must be > 0, got {self.rail_v}")

    @property
    def noise(self) -> NoiseModel:
        """Effective input-referred noise model."""
        if self.input_noise is not None:
            return self.input_noise
        return NoiseModel(
            white_density_a_rthz=thermal_current_noise_density(self.gain_v_per_a),
            flicker_corner_hz=1.0,
        )

    def amplify(self,
                current_a: np.ndarray,
                sampling_rate_hz: float,
                rng: "np.random.Generator | list[np.random.Generator] | None" = None,
                add_noise: bool = True) -> np.ndarray:
        """Convert a current trace to the output voltage trace [V].

        Applies (in order): offset addition, input-referred noise, the
        single-pole low-pass response, and rail clipping.

        Accepts a 1-D trace or a ``(n_cells, n_samples)`` batch; batches
        are processed vectorized along the last axis.  For a batch, ``rng``
        may be a sequence of per-row generators (deterministic per-cell
        noise) or a single generator shared across rows.
        """
        current_a = np.asarray(current_a, dtype=float)
        if current_a.ndim not in (1, 2):
            raise ValueError(
                "current trace must be 1-D or (n_cells, n_samples)")
        if sampling_rate_hz <= 0:
            raise ValueError("sampling rate must be > 0")
        signal = current_a + self.offset_current_a
        if add_noise:
            if signal.ndim == 1:
                if not (rng is None or isinstance(rng, np.random.Generator)):
                    raise ValueError(
                        "per-row generator sequences require a 2-D batch")
                signal = signal + self.noise.sample(
                    signal.size, sampling_rate_hz, rng)
            else:
                signal = signal + self.noise.sample_batch(
                    signal.shape[0], signal.shape[1], sampling_rate_hz, rng)
        filtered = self._single_pole(signal, sampling_rate_hz)
        voltage = self.gain_v_per_a * filtered
        return np.clip(voltage, -self.rail_v, self.rail_v)

    def _single_pole(self, x: np.ndarray, sampling_rate_hz: float) -> np.ndarray:
        """Causal single-pole low-pass at the amplifier bandwidth.

        Filters along the last axis, so 1-D traces and 2-D batches share
        one code path (and one set of filter coefficients).
        """
        from scipy.signal import lfilter

        alpha = 1.0 - math.exp(-2.0 * math.pi * self.bandwidth_hz
                               / sampling_rate_hz)
        if alpha >= 1.0:
            return x.copy()
        b = [alpha]
        a = [1.0, -(1.0 - alpha)]
        # Start the filter settled at the first sample to avoid a synthetic
        # turn-on transient.
        zi = (1.0 - alpha) * x[..., :1]
        y, __ = lfilter(b, a, x, axis=-1, zi=zi)
        return y
