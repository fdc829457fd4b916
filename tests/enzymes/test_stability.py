"""Tests for repro.enzymes.stability."""

import math

import numpy as np
import pytest

from repro.constants import STANDARD_TEMPERATURE
from repro.enzymes.stability import EnzymeStability

WEEK_S = 7 * 24 * 3600.0


@pytest.fixture()
def stability():
    return EnzymeStability(half_life_s=WEEK_S)


class TestDecay:
    def test_half_activity_at_half_life(self, stability):
        assert math.exp(-stability.decay_rate_per_s * WEEK_S) \
            == pytest.approx(0.5)


class TestArrhenius:
    def test_reference_temperature_matches_base_rate(self, stability):
        assert stability.rate_at(STANDARD_TEMPERATURE) \
            == pytest.approx(stability.decay_rate_per_s)

    def test_higher_temperature_decays_faster(self, stability):
        assert stability.rate_at(310.0) > stability.decay_rate_per_s

    def test_lower_temperature_decays_slower(self, stability):
        assert stability.rate_at(277.0) < stability.decay_rate_per_s


class TestValidation:
    def test_rejects_non_positive_half_life(self):
        with pytest.raises(ValueError):
            EnzymeStability(half_life_s=0.0)

    def test_rejects_negative_activation_energy(self):
        with pytest.raises(ValueError):
            EnzymeStability(half_life_s=1.0, activation_energy_j_mol=-1.0)


class TestBatchKernels:
    def test_rates_at_matches_scalar(self, stability):
        temps = np.array([277.0, 298.15, 310.15, 330.0])
        batch = stability.rates_at(temps)
        scalar = np.array([stability.rate_at(t) for t in temps])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_rates_at_rejects_non_positive(self, stability):
        with pytest.raises(ValueError):
            stability.rates_at(np.array([300.0, 0.0]))
