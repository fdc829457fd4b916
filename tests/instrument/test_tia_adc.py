"""Tests for repro.instrument.tia and repro.instrument.adc."""

import numpy as np
import pytest

from repro.instrument.adc import SarAdc
from repro.instrument.noise import NoiseModel
from repro.instrument.tia import TransimpedanceAmplifier


def quiet_tia(gain: float = 1e6, bandwidth: float = 100.0,
              rail: float = 2.5) -> TransimpedanceAmplifier:
    return TransimpedanceAmplifier(
        gain_v_per_a=gain, bandwidth_hz=bandwidth, rail_v=rail,
        input_noise=NoiseModel(white_density_a_rthz=0.0))


class TestTia:
    def test_dc_gain(self):
        tia = quiet_tia()
        out = tia.amplify(np.full(2000, 1e-6), 100.0, add_noise=False)
        assert out[-1] == pytest.approx(1.0, rel=1e-3)

    def test_rail_clipping(self):
        tia = quiet_tia(gain=1e6, rail=2.5)
        out = tia.amplify(np.full(2000, 10e-6), 100.0, add_noise=False)
        assert np.max(out) == pytest.approx(2.5)

    def test_bandwidth_attenuates_fast_signal(self):
        tia = quiet_tia(bandwidth=1.0)
        fs = 1000.0
        t = np.arange(5000) / fs
        fast = 1e-6 * np.sin(2 * np.pi * 50.0 * t)
        out = tia.amplify(fast, fs, add_noise=False)
        # 50 Hz through a 1 Hz pole: ~50x attenuation.
        assert np.max(np.abs(out[1000:])) < 0.05 * 1e-6 * 1e6

    def test_offset_current_added(self):
        tia = TransimpedanceAmplifier(
            gain_v_per_a=1e6, bandwidth_hz=100.0, rail_v=2.5,
            input_noise=NoiseModel(0.0), offset_current_a=1e-7)
        out = tia.amplify(np.zeros(2000), 100.0, add_noise=False)
        assert out[-1] == pytest.approx(0.1, rel=1e-3)

    def test_default_noise_is_johnson_limited(self):
        tia = TransimpedanceAmplifier(gain_v_per_a=1e7)
        assert tia.noise.white_density_a_rthz == pytest.approx(
            40.6e-15, rel=5e-2)

    def test_noise_changes_output(self, rng):
        tia = TransimpedanceAmplifier(
            gain_v_per_a=1e6,
            input_noise=NoiseModel(white_density_a_rthz=1e-9))
        noisy = tia.amplify(np.zeros(1000), 100.0, rng=rng)
        assert np.std(noisy) > 0

    def test_accepts_batch_rows_matching_scalar(self):
        tia = quiet_tia()
        rows = np.vstack([np.linspace(0.0, 1e-6, 50),
                          np.linspace(1e-6, 0.0, 50)])
        batched = tia.amplify(rows, 100.0, add_noise=False)
        for row, trace in zip(batched, rows):
            np.testing.assert_allclose(
                row, tia.amplify(trace, 100.0, add_noise=False))

    def test_rejects_three_dimensional_input(self):
        with pytest.raises(ValueError):
            quiet_tia().amplify(np.zeros((2, 10, 10)), 100.0)


class TestAdc:
    def test_lsb_size(self):
        adc = SarAdc(n_bits=16, v_ref=2.5)
        assert adc.lsb_v == pytest.approx(5.0 / 65536)

    def test_quantization_roundtrip_within_half_lsb(self):
        adc = SarAdc(n_bits=12, v_ref=2.5)
        voltages = np.linspace(-2.4, 2.4, 1001)
        reconstructed = adc.convert(voltages)
        assert np.max(np.abs(reconstructed - voltages)) <= adc.lsb_v / 2 + 1e-12

    def test_clipping_at_range_edges(self):
        adc = SarAdc(n_bits=8, v_ref=1.0)
        codes = adc.quantize(np.array([-5.0, 5.0]))
        assert codes[0] == -128
        assert codes[1] == 127

    def test_quantization_noise_rms(self):
        adc = SarAdc(n_bits=12, v_ref=2.5)
        voltages = np.random.default_rng(3).uniform(-2.0, 2.0, 100_000)
        error = adc.convert(voltages) - voltages
        assert np.std(error) == pytest.approx(adc.quantization_noise_rms_v,
                                              rel=5e-2)

    def test_sample_trace_decimation(self):
        adc = SarAdc(n_bits=16, v_ref=2.5, sampling_rate_hz=10.0)
        trace = np.linspace(0.0, 1.0, 200)
        times, sampled = adc.sample_trace(trace, 100.0)
        assert sampled.size == 20
        assert times[1] - times[0] == pytest.approx(0.1)

    def test_sample_trace_rejects_non_integer_ratio(self):
        adc = SarAdc(sampling_rate_hz=10.0)
        with pytest.raises(ValueError, match="integer multiple"):
            adc.sample_trace(np.zeros(100), 25.0)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            SarAdc(n_bits=2)
