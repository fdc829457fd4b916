"""Tests for peaks, steady-state extraction and drift correction."""

import numpy as np
import pytest

from repro.signal.peaks import find_peak_index, measure_peak
from repro.signal.steady_state import extract_steady_state


class TestPeakMeasurement:
    def make_cathodic_trace(self, height: float = 1e-6):
        potential = np.linspace(0.1, -0.8, 500)
        bell = np.exp(-0.5 * ((potential + 0.35) / 0.05) ** 2)
        current = -height * bell + 2e-7 * potential + 1e-7
        return potential, current

    def test_measures_height_above_baseline(self):
        potential, current = self.make_cathodic_trace(1e-6)
        peak = measure_peak(potential, current, (-0.5, -0.2), polarity=-1)
        assert peak.height == pytest.approx(1e-6, rel=5e-2)

    def test_height_linear_in_amplitude(self):
        p1, c1 = self.make_cathodic_trace(1e-6)
        p2, c2 = self.make_cathodic_trace(2e-6)
        h1 = measure_peak(p1, c1, (-0.5, -0.2), polarity=-1).height
        h2 = measure_peak(p2, c2, (-0.5, -0.2), polarity=-1).height
        assert h2 == pytest.approx(2 * h1, rel=2e-2)

    def test_position_at_bell_centre(self):
        potential, current = self.make_cathodic_trace()
        peak = measure_peak(potential, current, (-0.5, -0.2), polarity=-1)
        assert peak.position == pytest.approx(-0.35, abs=0.02)

    def test_anodic_polarity(self):
        potential = np.linspace(-0.8, 0.1, 500)
        current = 1e-6 * np.exp(-0.5 * ((potential + 0.35) / 0.05) ** 2)
        peak = measure_peak(potential, current, (-0.5, -0.2), polarity=1)
        assert peak.polarity == 1
        assert peak.height == pytest.approx(1e-6, rel=5e-2)

    def test_robust_to_noise(self, rng):
        potential, current = self.make_cathodic_trace(1e-6)
        noisy = current + rng.normal(0.0, 2e-8, current.size)
        peak = measure_peak(potential, noisy, (-0.5, -0.2), polarity=-1)
        assert peak.height == pytest.approx(1e-6, rel=0.15)

    def test_find_peak_index_polarities(self):
        y = np.array([0.0, 3.0, -5.0, 1.0])
        assert find_peak_index(y, 1) == 1
        assert find_peak_index(y, -1) == 2

    def test_rejects_empty_window(self):
        potential, current = self.make_cathodic_trace()
        with pytest.raises(ValueError, match="peak window"):
            measure_peak(potential, current, (5.0, 6.0))


class TestSteadyState:
    def test_extracts_plateau(self):
        t = np.linspace(0.0, 20.0, 400)
        current = 1e-6 * (1 - np.exp(-t / 1.0))
        result = extract_steady_state(t, current)
        assert result.value == pytest.approx(1e-6, rel=1e-3)
        assert result.settled

    def test_flags_unsettled_record(self):
        t = np.linspace(0.0, 5.0, 100)
        current = 1e-6 * t  # pure ramp never settles
        result = extract_steady_state(t, current)
        assert not result.settled

    def test_std_reflects_noise(self, rng):
        t = np.linspace(0.0, 20.0, 2000)
        current = np.full_like(t, 1e-6) + rng.normal(0, 1e-9, t.size)
        result = extract_steady_state(t, current)
        assert result.std == pytest.approx(1e-9, rel=0.2)
