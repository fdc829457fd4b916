"""Tests for repro.instrument.noise."""

import numpy as np
import pytest

from repro.instrument.noise import (
    NoiseModel,
    flicker_corner_rms,
    thermal_current_noise_density,
)


class TestDensities:
    def test_thermal_10_megaohm(self):
        # sqrt(4kT/R) at 10 Mohm, 25 C: ~40.6 fA/sqrt(Hz).
        density = thermal_current_noise_density(1e7)
        assert density == pytest.approx(40.6e-15, rel=2e-2)

    def test_larger_resistor_is_quieter(self):
        assert thermal_current_noise_density(1e8) \
            < thermal_current_noise_density(1e6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            thermal_current_noise_density(0.0)


class TestFlickerRms:
    def test_white_only_band_integration(self):
        rms = flicker_corner_rms(1e-12, 0.0, 0.01, 100.01)
        assert rms == pytest.approx(1e-12 * 10.0, rel=1e-6)

    def test_flicker_adds_power(self):
        white_only = flicker_corner_rms(1e-12, 0.0, 0.01, 100.0)
        with_flicker = flicker_corner_rms(1e-12, 10.0, 0.01, 100.0)
        assert with_flicker > white_only

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            flicker_corner_rms(1e-12, 1.0, 1.0, 0.5)


class TestNoiseModelSampling:
    def test_white_rms_matches_theory(self, rng):
        model = NoiseModel(white_density_a_rthz=1e-12)
        fs = 100.0
        samples = model.sample(200_000, fs, rng)
        expected = 1e-12 * np.sqrt(fs / 2.0)
        assert np.std(samples) == pytest.approx(expected, rel=2e-2)

    def test_zero_density_gives_silence(self, rng):
        model = NoiseModel(white_density_a_rthz=0.0)
        samples = model.sample(1000, 100.0, rng)
        assert np.all(samples == 0.0)

    def test_flicker_raises_low_frequency_power(self, rng):
        white = NoiseModel(white_density_a_rthz=1e-12)
        pink = NoiseModel(white_density_a_rthz=1e-12, flicker_corner_hz=10.0)
        n, fs = 65536, 100.0
        white_samples = white.sample(n, fs, np.random.default_rng(1))
        pink_samples = pink.sample(n, fs, np.random.default_rng(1))
        freqs = np.fft.rfftfreq(n, 1 / fs)
        white_psd = np.abs(np.fft.rfft(white_samples)) ** 2
        pink_psd = np.abs(np.fft.rfft(pink_samples)) ** 2
        low = (freqs > 0.01) & (freqs < 0.5)
        high = freqs > 25.0
        low_ratio = pink_psd[low].mean() / white_psd[low].mean()
        high_ratio = pink_psd[high].mean() / white_psd[high].mean()
        assert low_ratio > 5.0 * high_ratio

    def test_reproducible_with_seeded_rng(self):
        model = NoiseModel(white_density_a_rthz=1e-12, flicker_corner_hz=1.0)
        a = model.sample(1000, 10.0, np.random.default_rng(7))
        b = model.sample(1000, 10.0, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rms_helper_consistency(self):
        model = NoiseModel(white_density_a_rthz=1e-12, flicker_corner_hz=0.0)
        assert model.rms(0.0, 25.0) == pytest.approx(1e-12 * np.sqrt(25.0))

    def test_rejects_bad_sample_request(self):
        model = NoiseModel(white_density_a_rthz=1e-12)
        with pytest.raises(ValueError):
            model.sample(0, 10.0)
        with pytest.raises(ValueError):
            model.sample(10, 0.0)
