"""Tests for repro.nano.cnt."""

import math

import pytest

from repro.nano.cnt import MWCNT_DROPSENS, CarbonNanotube, conductance_quantum


class TestConductanceQuantum:
    def test_value(self):
        # G0 = 2e^2/h ~ 77.5 uS.
        assert conductance_quantum() == pytest.approx(77.48e-6, rel=1e-3)


class TestPaperTube:
    def test_paper_geometry(self):
        # "MWCNT - diameter 10 nm, length 1-2 um - Dropsens, Spain".
        assert MWCNT_DROPSENS.outer_diameter_m == pytest.approx(10e-9)
        assert 1e-6 <= MWCNT_DROPSENS.length_m <= 2e-6

    def test_paper_tube_is_ballistic(self):
        # Ref [26]: mean free path two orders beyond macroscale conductors;
        # a 1.5 um tube conducts ballistically.
        assert MWCNT_DROPSENS.length_m < MWCNT_DROPSENS.mean_free_path_m

    def test_mean_free_path_two_orders_above_copper(self):
        copper_mfp = 40e-9
        assert MWCNT_DROPSENS.mean_free_path_m >= 100 * copper_mfp


class TestGeometry:
    def test_sidewall_area(self):
        tube = CarbonNanotube(10e-9, 1e-6, n_walls=5)
        assert tube.sidewall_area_m2 == pytest.approx(math.pi * 10e-9 * 1e-6)

    def test_specific_surface_area_tens_of_m2_per_gram(self):
        # 10 nm MWCNT: experimental BET areas are tens to ~200 m^2/g.
        ssa_m2_g = MWCNT_DROPSENS.specific_surface_area_m2_kg / 1e3
        assert 20.0 < ssa_m2_g < 400.0

    def test_thinner_tube_higher_specific_area(self):
        thin = CarbonNanotube(6e-9, 1e-6, n_walls=5)
        thick = CarbonNanotube(20e-9, 1e-6, n_walls=5)
        assert thin.specific_surface_area_m2_kg \
            > thick.specific_surface_area_m2_kg

    def test_walls_must_fit_in_diameter(self):
        with pytest.raises(ValueError, match="cannot fit"):
            CarbonNanotube(5e-9, 1e-6, n_walls=20)


class TestTransport:
    def test_short_tube_conductance_near_ballistic_limit(self):
        tube = CarbonNanotube(10e-9, 0.5e-6, n_walls=10)
        channels = tube.conducting_channels_per_wall * tube.n_walls
        ballistic_limit = channels * conductance_quantum()
        assert tube.ballistic_conductance_s() \
            == pytest.approx(ballistic_limit, rel=3e-2)

    def test_long_tube_scales_diffusively(self):
        short = CarbonNanotube(10e-9, 1e-6, mean_free_path_m=1e-6)
        # Twice the length -> conductance drops, resistance grows.
        long = CarbonNanotube(10e-9, 2e-6, mean_free_path_m=1e-6)
        assert long.resistance_ohm() > short.resistance_ohm()

    def test_more_walls_conduct_better(self):
        few = CarbonNanotube(10e-9, 1e-6, n_walls=3)
        many = CarbonNanotube(10e-9, 1e-6, n_walls=10)
        assert many.ballistic_conductance_s() > few.ballistic_conductance_s()

    def test_resistance_kohm_scale(self):
        # Individual MWCNT resistances are in the kilo-ohm range.
        assert 100.0 < MWCNT_DROPSENS.resistance_ohm() < 1e6
