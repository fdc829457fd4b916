"""Complete acquisition chain: TIA -> anti-alias filter -> ADC.

This is the "electrical component" of the paper's modular platform — the
part that stays fixed while the chemical layer (electrode + film + enzyme)
is swapped per target.  ``acquire`` turns a true current trace into the
digital record an instrument would log, and ``input_referred_noise_rms``
predicts the noise floor that bounds the limit of detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.instrument.adc import SarAdc
from repro.instrument.filters import AnalogLowPass
from repro.instrument.noise import NoiseModel
from repro.instrument.tia import TransimpedanceAmplifier


@dataclass(frozen=True)
class AcquiredTrace:
    """Result of digitizing a current trace.

    Attributes:
        time_s: ADC sample timestamps [s].
        current_a: reconstructed current at each sample [A].
        true_current_a: noiseless input decimated to the same grid [A]
            (ground truth for error analysis; a real instrument lacks it).
    """

    time_s: np.ndarray
    current_a: np.ndarray
    true_current_a: np.ndarray

    def __post_init__(self) -> None:
        if not (self.time_s.shape == self.current_a.shape
                == self.true_current_a.shape):
            raise ValueError("trace arrays must share one shape")


@dataclass(frozen=True)
class BatchAcquiredTrace:
    """Result of digitizing a whole batch of current traces at once.

    Attributes:
        time_s: ADC sample timestamps [s], shared by every cell
            (``(n_samples,)``).
        current_a: reconstructed currents, ``(n_cells, n_samples)``.
        true_current_a: noiseless inputs decimated to the same grid,
            ``(n_cells, n_samples)``.
    """

    time_s: np.ndarray
    current_a: np.ndarray
    true_current_a: np.ndarray

    def __post_init__(self) -> None:
        if self.current_a.ndim != 2:
            raise ValueError("batch currents must be (n_cells, n_samples)")
        if self.current_a.shape != self.true_current_a.shape:
            raise ValueError("batch trace arrays must share one shape")
        if self.time_s.shape != (self.current_a.shape[1],):
            raise ValueError("time grid must match the sample axis")

    def cell(self, index: int) -> AcquiredTrace:
        """Extract one cell as a scalar-API :class:`AcquiredTrace`."""
        return AcquiredTrace(time_s=self.time_s,
                             current_a=self.current_a[index],
                             true_current_a=self.true_current_a[index])


@dataclass(frozen=True)
class AcquisitionChain:
    """TIA + filter + ADC readout chain.

    Attributes:
        tia: transimpedance stage.
        antialias: analog low-pass before the ADC (``None`` for none).
        adc: the converter.
    """

    tia: TransimpedanceAmplifier
    adc: SarAdc
    antialias: AnalogLowPass | None = field(default=None)

    @classmethod
    def for_full_scale(cls,
                       full_scale_current_a: float,
                       adc_rate_hz: float = 10.0,
                       n_bits: int = 16,
                       white_noise_a_rthz: float | None = None,
                       flicker_corner_hz: float = 0.5,
                       rail_v: float = 2.5) -> "AcquisitionChain":
        """Design a chain for a given full-scale current.

        Picks the TIA gain to map ``full_scale_current_a`` to 80 % of the
        rails, a two-pole anti-alias at 40 % of the ADC Nyquist rate, and a
        default (Johnson-limited) or user-specified noise floor.
        """
        if full_scale_current_a <= 0:
            raise ValueError("full-scale current must be > 0")
        gain = 0.8 * rail_v / full_scale_current_a
        noise = None
        if white_noise_a_rthz is not None:
            noise = NoiseModel(white_density_a_rthz=white_noise_a_rthz,
                               flicker_corner_hz=flicker_corner_hz)
        tia = TransimpedanceAmplifier(
            gain_v_per_a=gain,
            bandwidth_hz=max(10.0, 4.0 * adc_rate_hz),
            rail_v=rail_v,
            input_noise=noise,
        )
        antialias = AnalogLowPass(cutoff_hz=0.4 * adc_rate_hz / 2.0 * 2.0,
                                  order=2)
        adc = SarAdc(n_bits=n_bits, v_ref=rail_v, sampling_rate_hz=adc_rate_hz)
        return cls(tia=tia, adc=adc, antialias=antialias)

    def acquire(self,
                current_a: np.ndarray,
                input_rate_hz: float,
                rng: np.random.Generator | None = None,
                add_noise: bool = True) -> AcquiredTrace:
        """Digitize a true current trace sampled at ``input_rate_hz``.

        The input rate must be an integer multiple of the ADC rate.
        """
        current_a = np.asarray(current_a, dtype=float)
        if current_a.ndim != 1:
            raise ValueError("current trace must be one-dimensional")
        batch = self.acquire_batch(current_a[None, :], input_rate_hz,
                                   rngs=rng, add_noise=add_noise)
        return batch.cell(0)

    def acquire_batch(self,
                      current_a: np.ndarray,
                      input_rate_hz: float,
                      rngs: "np.random.Generator | list[np.random.Generator] | None" = None,
                      add_noise: bool = True,
                      true_current_a: np.ndarray | None = None,
                      ) -> BatchAcquiredTrace:
        """Digitize ``(n_cells, n_samples)`` true current traces at once.

        Vectorized counterpart of :meth:`acquire`: the TIA, anti-alias
        filter and ADC all operate on the whole block along the sample
        axis, so the per-trace Python overhead of a campaign collapses
        into a handful of array passes.

        Args:
            current_a: true currents, one row per cell.
            input_rate_hz: analog simulation rate (integer multiple of the
                ADC rate, as in :meth:`acquire`).
            rngs: one generator per row (deterministic per-cell noise), a
                single shared generator, or ``None``.
            add_noise: disable for noiseless reference runs.
            true_current_a: precomputed noiseless decimated rows (e.g. from
                the engine's kernel cache); when ``None`` the clean path is
                recomputed here exactly as :meth:`acquire` does.
        """
        current_a = np.asarray(current_a, dtype=float)
        if current_a.ndim != 2:
            raise ValueError("batch input must be (n_cells, n_samples)")
        voltage = self.tia.amplify(current_a, input_rate_hz, rng=rngs,
                                   add_noise=add_noise)
        if self.antialias is not None:
            voltage = self.antialias.apply(voltage, input_rate_hz)
        times, reconstructed_v = self.adc.sample_trace(voltage, input_rate_hz)
        measured = reconstructed_v / self.tia.gain_v_per_a

        if true_current_a is None:
            if not add_noise:
                # The noisy path just ran noise-free: it IS the clean path.
                true_current_a = measured
            else:
                clean_v = self.tia.amplify(current_a, input_rate_hz,
                                           add_noise=False)
                if self.antialias is not None:
                    clean_v = self.antialias.apply(clean_v, input_rate_hz)
                __, clean_sampled = self.adc.sample_trace(
                    clean_v, input_rate_hz)
                true_current_a = clean_sampled / self.tia.gain_v_per_a
        else:
            true_current_a = np.asarray(true_current_a, dtype=float)
            if true_current_a.shape != measured.shape:
                raise ValueError(
                    f"precomputed clean rows {true_current_a.shape} do not "
                    f"match the acquired shape {measured.shape}")
        return BatchAcquiredTrace(time_s=times, current_a=measured,
                                  true_current_a=true_current_a)

    def input_referred_noise_rms(self, f_low_hz: float = 0.01) -> float:
        """Total input-referred noise RMS [A] of the chain.

        Quadrature sum of the TIA noise over the post-filter bandwidth and
        the ADC quantization noise referred through the TIA gain.
        """
        bandwidth = (self.antialias.noise_bandwidth_hz()
                     if self.antialias is not None else self.tia.bandwidth_hz)
        bandwidth = min(bandwidth, self.tia.bandwidth_hz)
        tia_rms = self.tia.noise.rms(f_low_hz, max(bandwidth, 2.0 * f_low_hz))
        adc_rms = self.adc.quantization_noise_rms_v / self.tia.gain_v_per_a
        return float(np.hypot(tia_rms, adc_rms))
