"""Tests for repro.signal.smoothing and repro.signal.baseline."""

import numpy as np
import pytest

from repro.signal.baseline import (
    baseline_from_flanks,
    fit_polynomial_baseline,
    subtract_baseline,
)
from repro.signal.smoothing import (
    moving_average,
    savitzky_golay,
)


class TestMovingAverage:
    def test_preserves_constant(self):
        x = np.full(50, 3.0)
        assert np.allclose(moving_average(x, 7), 3.0)

    def test_preserves_length(self):
        assert moving_average(np.arange(20.0), 5).size == 20

    def test_reduces_noise(self, rng):
        noisy = rng.normal(0.0, 1.0, 5000)
        smoothed = moving_average(noisy, 21)
        assert np.std(smoothed) < 0.4 * np.std(noisy)

    def test_window_one_is_identity(self):
        x = np.arange(10.0)
        assert np.array_equal(moving_average(x, 1), x)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average(np.arange(10.0), 0)


class TestSavitzkyGolay:
    def test_preserves_parabola_exactly(self):
        x = np.linspace(-1, 1, 101)
        parabola = 3 * x ** 2 + 2 * x + 1
        assert np.allclose(savitzky_golay(parabola, 11, 2), parabola,
                           atol=1e-10)

    def test_peak_height_preserved_better_than_moving_average(self, rng):
        x = np.arange(200.0)
        peak = np.exp(-0.5 * ((x - 100) / 5.0) ** 2)
        sg = savitzky_golay(peak, 11, 2)
        ma = moving_average(peak, 11)
        assert abs(sg.max() - 1.0) < abs(ma.max() - 1.0)

    def test_even_window_rounded_up(self):
        x = np.arange(50.0)
        assert savitzky_golay(x, 10, 2).size == 50

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            savitzky_golay(np.arange(50.0), 2)


class TestBaseline:
    def test_recovers_linear_baseline(self):
        x = np.linspace(0.0, 1.0, 200)
        y = 2.0 * x + 0.5
        mask = np.ones_like(x, dtype=bool)
        baseline = fit_polynomial_baseline(x, y, mask, degree=1)
        assert np.allclose(baseline, y, atol=1e-12)

    def test_flank_fit_ignores_peak(self):
        x = np.linspace(-1.0, 1.0, 400)
        peak = np.exp(-0.5 * (x / 0.1) ** 2)
        y = 0.3 * x + peak
        baseline = baseline_from_flanks(x, y, peak_window=(-0.4, 0.4))
        corrected = subtract_baseline(y, baseline)
        # The peak survives baseline subtraction almost exactly.
        assert corrected.max() == pytest.approx(1.0, rel=2e-2)
        # Flank regions are flattened to ~zero.
        flanks = (x < -0.6) | (x > 0.6)
        assert np.max(np.abs(corrected[flanks])) < 0.02

    def test_constant_offset_removed(self):
        x = np.linspace(0.0, 1.0, 100)
        y = np.full_like(x, 7.0)
        baseline = baseline_from_flanks(x, y, peak_window=(0.4, 0.6))
        assert np.allclose(subtract_baseline(y, baseline), 0.0, atol=1e-12)

    def test_rejects_peak_window_covering_everything(self):
        x = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ValueError, match="whole trace"):
            baseline_from_flanks(x, x, peak_window=(-1.0, 2.0))

    def test_rejects_insufficient_baseline_samples(self):
        x = np.linspace(0.0, 1.0, 10)
        mask = np.zeros_like(x, dtype=bool)
        mask[0] = True
        with pytest.raises(ValueError, match="baseline samples"):
            fit_polynomial_baseline(x, x, mask, degree=1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            subtract_baseline(np.zeros(10), np.zeros(11))
