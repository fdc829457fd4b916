"""Tests for repro.enzymes.catalog."""

import pytest

from repro.enzymes.catalog import (
    ALL_ENZYMES,
    CYP1A2,
    CYP2B6,
    CYP3A4,
    CYP_CUSTOM_FATTY_ACID,
    EnzymeFamily,
    GLUCOSE_OXIDASE,
    GLUTAMATE_OXIDASE,
    LACTATE_OXIDASE,
    enzyme_by_name,
)


class TestCatalogStructure:
    def test_seven_enzymes_as_in_table1(self):
        assert len(ALL_ENZYMES) == 7

    def test_three_oxidases(self):
        oxidases = [e for e in ALL_ENZYMES
                    if e.family is EnzymeFamily.OXIDASE]
        assert len(oxidases) == 3

    def test_four_cyps(self):
        cyps = [e for e in ALL_ENZYMES
                if e.family is EnzymeFamily.CYTOCHROME_P450]
        assert len(cyps) == 4

    def test_unique_abbreviations(self):
        abbreviations = [e.abbreviation for e in ALL_ENZYMES]
        assert len(set(abbreviations)) == len(abbreviations)


class TestTable1Pairing:
    """Target-probe pairing from Table 1 of the paper."""

    @pytest.mark.parametrize("enzyme, substrate", [
        (GLUCOSE_OXIDASE, "glucose"),
        (LACTATE_OXIDASE, "lactate"),
        (GLUTAMATE_OXIDASE, "glutamate"),
        (CYP_CUSTOM_FATTY_ACID, "arachidonic acid"),
        (CYP1A2, "ftorafur"),
        (CYP2B6, "cyclophosphamide"),
        (CYP3A4, "ifosfamide"),
    ])
    def test_substrate_assignment(self, enzyme, substrate):
        assert enzyme.substrate == substrate

    def test_oxidases_signal_through_h2o2(self):
        for enzyme in (GLUCOSE_OXIDASE, LACTATE_OXIDASE, GLUTAMATE_OXIDASE):
            assert enzyme.detected_species == "hydrogen_peroxide"
            assert enzyme.n_electrons == 2

    def test_cyps_signal_through_heme(self):
        for enzyme in (CYP1A2, CYP2B6, CYP3A4, CYP_CUSTOM_FATTY_ACID):
            assert enzyme.detected_species == "cyp_heme"
            assert enzyme.n_electrons == 1


class TestKinetics:
    def test_god_is_fast(self):
        assert GLUCOSE_OXIDASE.kcat_per_s > 100.0

    def test_cyps_are_slow(self):
        for cyp in (CYP1A2, CYP2B6, CYP3A4):
            assert cyp.kcat_per_s < 50.0


class TestLookup:
    def test_by_full_name(self):
        assert enzyme_by_name("glucose oxidase") is GLUCOSE_OXIDASE

    def test_by_abbreviation(self):
        assert enzyme_by_name("GOD") is GLUCOSE_OXIDASE
        assert enzyme_by_name("GlOD") is GLUTAMATE_OXIDASE

    def test_unknown_raises_with_options(self):
        with pytest.raises(KeyError, match="available"):
            enzyme_by_name("unobtainase")
