"""Tests for filters and the acquisition chain."""

import numpy as np
import pytest

from repro.instrument.chain import AcquisitionChain
from repro.instrument.filters import AnalogLowPass


class TestAnalogLowPass:
    def test_passes_dc(self):
        lp = AnalogLowPass(cutoff_hz=5.0, order=2)
        out = lp.apply(np.ones(4000), 100.0)
        assert out[-1] == pytest.approx(1.0, rel=1e-3)

    def test_attenuates_above_cutoff(self):
        lp = AnalogLowPass(cutoff_hz=2.0, order=4)
        fs = 200.0
        t = np.arange(8000) / fs
        tone = np.sin(2 * np.pi * 40.0 * t)
        out = lp.apply(tone, fs)
        assert np.max(np.abs(out[2000:])) < 0.01

    def test_zero_phase_preserves_peak_position(self):
        lp = AnalogLowPass(cutoff_hz=5.0, order=2)
        fs = 100.0
        x = np.exp(-0.5 * ((np.arange(1000) - 500) / 30.0) ** 2)
        causal = lp.apply(x, fs)
        zero_phase = lp.apply_zero_phase(x, fs)
        assert abs(int(np.argmax(zero_phase)) - 500) <= 1
        assert int(np.argmax(causal)) > 500  # causal filter delays

    def test_noise_bandwidth_order1(self):
        lp = AnalogLowPass(cutoff_hz=10.0, order=1)
        assert lp.noise_bandwidth_hz() == pytest.approx(10.0 * np.pi / 2,
                                                        rel=1e-6)

    def test_noise_bandwidth_shrinks_with_order(self):
        assert AnalogLowPass(10.0, 4).noise_bandwidth_hz() \
            < AnalogLowPass(10.0, 1).noise_bandwidth_hz()

    def test_rejects_cutoff_above_nyquist(self):
        lp = AnalogLowPass(cutoff_hz=60.0)
        with pytest.raises(ValueError, match="Nyquist"):
            lp.apply(np.zeros(100), 100.0)


class TestAcquisitionChain:
    def make_chain(self, noise: float = 0.0) -> AcquisitionChain:
        return AcquisitionChain.for_full_scale(
            full_scale_current_a=1e-6,
            adc_rate_hz=10.0,
            white_noise_a_rthz=noise if noise > 0 else 1e-18)

    def test_reconstructs_dc_current(self, rng):
        chain = self.make_chain()
        trace = np.full(400, 5e-7)
        acquired = chain.acquire(trace, 20.0, rng=rng, add_noise=False)
        assert acquired.current_a[-1] == pytest.approx(5e-7, rel=1e-2)

    def test_output_at_adc_rate(self, rng):
        chain = self.make_chain()
        acquired = chain.acquire(np.zeros(400), 20.0, rng=rng)
        assert acquired.time_s.size == 200
        assert acquired.time_s[1] - acquired.time_s[0] == pytest.approx(0.1)

    def test_noise_floor_raises_rms_error(self):
        quiet = self.make_chain().acquire(
            np.full(2000, 5e-7), 20.0, rng=np.random.default_rng(5))
        noisy = self.make_chain(noise=1e-9).acquire(
            np.full(2000, 5e-7), 20.0, rng=np.random.default_rng(5))
        assert noisy.rms_error_a > quiet.rms_error_a

    def test_input_referred_noise_positive(self):
        chain = self.make_chain(noise=1e-12)
        assert chain.input_referred_noise_rms() > 0

    def test_dynamic_range_reasonable(self):
        chain = self.make_chain(noise=1e-12)
        assert 20.0 < chain.dynamic_range_db() < 160.0

    def test_rejects_non_multiple_rate(self, rng):
        chain = self.make_chain()
        with pytest.raises(ValueError, match="integer multiple"):
            chain.acquire(np.zeros(100), 25.0, rng=rng)

    def test_for_full_scale_validates(self):
        with pytest.raises(ValueError):
            AcquisitionChain.for_full_scale(full_scale_current_a=0.0)
