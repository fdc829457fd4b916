"""Tests for repro.enzymes.oxygen (the implantable oxygen deficit)."""

import pytest

from repro.enzymes.catalog import GLUCOSE_OXIDASE
from repro.enzymes.oxygen import (
    AIR_SATURATED_O2_MOLAR,
    TISSUE_O2_MOLAR,
    OxygenDependence,
)


@pytest.fixture()
def god_model():
    return OxygenDependence(enzyme=GLUCOSE_OXIDASE)


class TestSensitivityRetention:
    def test_saturated_oxygen_full_signal(self, god_model):
        assert god_model.midrange_retention(10e-3) \
            == pytest.approx(1.0, rel=2e-2)

    def test_air_saturation_already_costs_signal(self, god_model):
        # Km_O2 ~ air saturation: even a beaker measurement loses some.
        retention = god_model.midrange_retention(AIR_SATURATED_O2_MOLAR)
        assert 0.4 < retention < 0.85

    def test_tissue_oxygen_severely_limits(self, god_model):
        retention = god_model.midrange_retention(TISSUE_O2_MOLAR)
        assert retention < 0.2

    def test_zero_oxygen_kills_response(self, god_model):
        assert god_model.midrange_retention(0.0) == 0.0

    def test_initial_slope_barely_affected(self, god_model):
        # The ping-pong subtlety: substrate << Km hides the O2 term, so
        # the *sensitivity* survives even at tissue oxygen.
        assert god_model.rate_factor(
            GLUCOSE_OXIDASE.km_molar * 1e-3, TISSUE_O2_MOLAR) > 0.95

    def test_monotone_in_oxygen(self, god_model):
        levels = [0.01e-3, 0.05e-3, 0.25e-3, 1e-3]
        retentions = [god_model.midrange_retention(o) for o in levels]
        assert all(a < b for a, b in zip(retentions, retentions[1:]))

    def test_permeable_membrane_helps(self):
        naked = OxygenDependence(GLUCOSE_OXIDASE, oxygen_permeability=1.0)
        engineered = OxygenDependence(GLUCOSE_OXIDASE,
                                      oxygen_permeability=3.0)
        assert engineered.midrange_retention(TISSUE_O2_MOLAR) \
            > naked.midrange_retention(TISSUE_O2_MOLAR)


class TestLinearRange:
    def test_low_oxygen_shrinks_range(self, god_model):
        rich = god_model.apparent_linear_upper(AIR_SATURATED_O2_MOLAR)
        poor = god_model.apparent_linear_upper(TISSUE_O2_MOLAR)
        assert poor < rich

    def test_anoxia_gives_zero_range(self, god_model):
        assert god_model.apparent_linear_upper(0.0) == 0.0

    def test_rejects_bad_tolerance(self, god_model):
        with pytest.raises(ValueError):
            god_model.apparent_linear_upper(1e-3, tolerance=0.0)


class TestRateFactor:
    def test_bounded_unit_interval(self, god_model):
        factor = god_model.rate_factor(1e-3, 0.1e-3)
        assert 0.0 < factor <= 1.0

    def test_zero_substrate_neutral(self, god_model):
        assert god_model.rate_factor(0.0, 1e-9) == 1.0
