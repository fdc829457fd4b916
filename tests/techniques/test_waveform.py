"""Tests for repro.techniques.waveform and base structures."""

import numpy as np
import pytest

from repro.techniques.base import Measurement, Waveform
from repro.techniques.waveform import (
    constant_potential,
    cyclic_wave,
)


class TestConstantPotential:
    def test_holds_level(self):
        wave = constant_potential(0.65, 10.0, 20.0)
        assert np.all(wave.potential_v == 0.65)

    def test_sample_count(self):
        wave = constant_potential(0.65, 10.0, 20.0)
        assert wave.n_samples == 200

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            constant_potential(0.65, 0.0, 20.0)


class TestCyclicWave:
    def test_returns_to_start(self):
        wave = cyclic_wave(0.1, -0.8, 0.1, 100.0)
        assert wave.potential_v[0] == pytest.approx(0.1)
        # Last sample is one step before closing the triangle.
        assert wave.potential_v[-1] == pytest.approx(0.1, abs=0.02)

    def test_reaches_vertex(self):
        wave = cyclic_wave(0.1, -0.8, 0.1, 100.0)
        assert wave.potential_v.min() == pytest.approx(-0.8, abs=0.01)

    def test_multiple_cycles_tile(self):
        one = cyclic_wave(0.1, -0.8, 0.1, 100.0, n_cycles=1)
        three = cyclic_wave(0.1, -0.8, 0.1, 100.0, n_cycles=3)
        assert three.n_samples == 3 * one.n_samples

    def test_triangular_symmetry(self):
        wave = cyclic_wave(0.0, -1.0, 0.1, 100.0)
        n = wave.n_samples
        forward = wave.potential_v[: n // 2]
        assert np.all(np.diff(forward) <= 0)

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            cyclic_wave(0.1, -0.8, 0.1, 100.0, n_cycles=0)


class TestDataStructures:
    def test_waveform_validates_shapes(self):
        with pytest.raises(ValueError):
            Waveform(np.arange(5.0), np.arange(4.0), 10.0)

    def test_waveform_needs_two_samples(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0]), np.array([0.0]), 10.0)

    def test_measurement_validates_shapes(self):
        with pytest.raises(ValueError):
            Measurement(np.arange(5.0), np.arange(5.0), np.arange(4.0),
                        "x", 10.0)
