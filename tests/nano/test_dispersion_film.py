"""Tests for repro.nano.dispersion and repro.nano.film."""

import pytest

from repro.chem.species import HYDROGEN_PEROXIDE
from repro.nano.dispersion import (
    BARE,
    CHITOSAN,
    CHLOROFORM,
    MINERAL_OIL,
    NAFION,
    POLYURETHANE,
    SOL_GEL,
    medium_by_name,
)
from repro.nano.film import NanostructuredFilm


class TestDispersionCatalog:
    def test_nafion_disperses_best(self):
        """Wang et al. [54]: Nafion solubilizes CNT into uniform films."""
        for medium in (MINERAL_OIL, SOL_GEL, CHITOSAN):
            assert NAFION.utilization > medium.utilization

    def test_mineral_oil_is_worst(self):
        # The CNT-paste lactate sensor [41] has the lowest sensitivity in
        # Table 2; its dispersion quality reflects that.
        for medium in (NAFION, CHLOROFORM, SOL_GEL, CHITOSAN, POLYURETHANE):
            assert MINERAL_OIL.utilization < medium.utilization

    def test_lookup(self):
        assert medium_by_name("nafion") is NAFION
        with pytest.raises(KeyError, match="available"):
            medium_by_name("unknownium")


class TestBareFilm:
    def test_bare_film_neutral(self):
        bare = NanostructuredFilm.bare()
        assert bare.area_enhancement() == pytest.approx(1.0)
        assert bare.rate_enhancement() == pytest.approx(1.0)
        assert not bare.has_nanotubes

    def test_bare_film_poor_collection(self):
        # Without the porous CNT network most product escapes.
        assert NanostructuredFilm.bare().collection_efficiency() < 0.5

    def test_loading_requires_nanotubes(self):
        with pytest.raises(ValueError, match="nanotube"):
            NanostructuredFilm(nanotube=None, medium=BARE, loading_kg_m2=1e-4)


class TestCntFilm:
    def test_paper_nafion_film_enhances_area_tenfold_or_more(self):
        film = NanostructuredFilm.mwcnt_nafion()
        assert film.area_enhancement() > 10.0

    def test_rate_enhancement_bounded_by_intrinsic(self):
        film = NanostructuredFilm.mwcnt_nafion()
        assert 1.0 < film.rate_enhancement() <= film.intrinsic_rate_enhancement

    def test_rate_enhancement_saturates_with_loading(self):
        light = NanostructuredFilm.mwcnt_nafion(1e-4)
        heavy = NanostructuredFilm.mwcnt_nafion(1e-3)
        gain_light = light.rate_enhancement()
        gain_heavy = heavy.rate_enhancement()
        assert gain_heavy > gain_light
        # Saturation: the second factor-of-10 in loading gains little.
        assert gain_heavy < 1.3 * gain_light

    def test_area_enhancement_linear_in_loading(self):
        light = NanostructuredFilm.mwcnt_nafion(1e-4)
        heavy = NanostructuredFilm.mwcnt_nafion(2e-4)
        assert heavy.area_enhancement() - 1.0 \
            == pytest.approx(2 * (light.area_enhancement() - 1.0), rel=1e-9)

    def test_capacitance_tracks_area(self):
        film = NanostructuredFilm.mwcnt_nafion()
        assert film.capacitance_enhancement() \
            == pytest.approx(film.area_enhancement())

    def test_collection_efficiency_beats_bare(self):
        film = NanostructuredFilm.mwcnt_nafion()
        assert film.collection_efficiency() \
            > NanostructuredFilm.bare().collection_efficiency()

    def test_collection_efficiency_bounded(self):
        film = NanostructuredFilm.mwcnt_nafion(1e-2)
        assert film.collection_efficiency() <= 1.0

    def test_modify_couple_boosts_k0(self):
        film = NanostructuredFilm.mwcnt_nafion()
        modified = film.modify_couple(HYDROGEN_PEROXIDE)
        assert modified.k0 == pytest.approx(
            HYDROGEN_PEROXIDE.k0 * film.rate_enhancement())
