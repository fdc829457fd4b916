"""Tests for repro.therapy.metrics (therapeutic-window scoring)."""

import numpy as np
import pytest

from repro.pk.drugs import TherapeuticWindow
from repro.therapy.metrics import (
    fraction_above_window,
    fraction_below_window,
    time_in_range,
    trough_abs_rel_error,
)

WINDOW = TherapeuticWindow(low_molar=2e-6, high_molar=8e-6,
                           target_trough_molar=3e-6)


class TestWindowFractions:
    def test_partition_sums_to_one(self):
        rng = np.random.default_rng(4)
        c = rng.uniform(0.0, 12e-6, size=(5, 40))
        total = (time_in_range(c, WINDOW)
                 + fraction_below_window(c, WINDOW)
                 + fraction_above_window(c, WINDOW))
        np.testing.assert_allclose(total, 1.0)

    def test_known_fractions(self):
        c = np.array([[1e-6, 3e-6, 5e-6, 9e-6]])
        assert float(time_in_range(c, WINDOW)[0]) == pytest.approx(0.5)
        assert float(fraction_below_window(c, WINDOW)[0]) \
            == pytest.approx(0.25)
        assert float(fraction_above_window(c, WINDOW)[0]) \
            == pytest.approx(0.25)

    def test_one_dimensional_input_lifted(self):
        c = np.array([3e-6, 3e-6])
        assert time_in_range(c, WINDOW).shape == (1,)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            time_in_range(np.zeros((2, 2, 2)), WINDOW)


class TestTroughError:
    def test_perfect_troughs_zero_error(self):
        troughs = np.full((3, 5), WINDOW.target_trough_molar)
        np.testing.assert_array_equal(
            trough_abs_rel_error(troughs, WINDOW.target_trough_molar),
            np.zeros(3))

    def test_known_error(self):
        troughs = np.array([[4.5e-6, 1.5e-6]])  # +50 %, -50 %
        assert float(trough_abs_rel_error(troughs, 3e-6)[0]) \
            == pytest.approx(0.5)

    def test_skip_first_excludes_uncontrolled_interval(self):
        troughs = np.array([[30e-6, 3e-6, 3e-6]])
        assert float(trough_abs_rel_error(troughs, 3e-6, skip_first=1)[0]) \
            == pytest.approx(0.0)
        assert float(trough_abs_rel_error(troughs, 3e-6)[0]) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            trough_abs_rel_error(np.ones((1, 2)), 0.0)
        with pytest.raises(ValueError):
            trough_abs_rel_error(np.ones((1, 2)), 3e-6, skip_first=2)


class TestTherapeuticWindow:
    def test_contains_and_span(self):
        assert WINDOW.contains(3e-6)
        assert not WINDOW.contains(9e-6)
        assert WINDOW.span_molar == pytest.approx(6e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            TherapeuticWindow(low_molar=0.0, high_molar=1e-6,
                              target_trough_molar=5e-7)
        with pytest.raises(ValueError):
            TherapeuticWindow(low_molar=2e-6, high_molar=8e-6,
                              target_trough_molar=9e-6)
