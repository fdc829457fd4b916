"""Tests for repro.chem.species."""

import pytest

from repro.chem.species import (
    CYP_HEME,
    FERRICYANIDE,
    HYDROGEN_PEROXIDE,
    RedoxCouple,
)


class TestRedoxCoupleValidation:
    def test_valid_couple_constructs(self):
        couple = RedoxCouple("x", 1, 0.0, 1e-9, 1e-9, 1e-5)
        assert couple.alpha == 0.5

    def test_rejects_zero_electrons(self):
        with pytest.raises(ValueError, match="n_electrons"):
            RedoxCouple("x", 0, 0.0, 1e-9, 1e-9, 1e-5)

    def test_rejects_non_positive_diffusion(self):
        with pytest.raises(ValueError, match="diffusion"):
            RedoxCouple("x", 1, 0.0, 0.0, 1e-9, 1e-5)

    def test_rejects_non_positive_k0(self):
        with pytest.raises(ValueError, match="k0"):
            RedoxCouple("x", 1, 0.0, 1e-9, 1e-9, 0.0)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            RedoxCouple("x", 1, 0.0, 1e-9, 1e-9, 1e-5, alpha=1.0)


class TestRateEnhancement:
    def test_enhancement_multiplies_k0(self):
        enhanced = FERRICYANIDE.with_rate_enhancement(8.0)
        assert enhanced.k0 == pytest.approx(8.0 * FERRICYANIDE.k0)

    def test_enhancement_preserves_other_fields(self):
        enhanced = FERRICYANIDE.with_rate_enhancement(2.0)
        assert enhanced.formal_potential == FERRICYANIDE.formal_potential
        assert enhanced.n_electrons == FERRICYANIDE.n_electrons

    def test_original_unchanged(self):
        k0 = FERRICYANIDE.k0
        FERRICYANIDE.with_rate_enhancement(100.0)
        assert FERRICYANIDE.k0 == k0

    def test_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            FERRICYANIDE.with_rate_enhancement(0.0)


class TestBuiltinCouples:
    def test_h2o2_is_two_electron(self):
        # H2O2 -> O2 + 2H+ + 2e-: the oxidase sensor signal.
        assert HYDROGEN_PEROXIDE.n_electrons == 2

    def test_cyp_heme_is_one_electron_negative_potential(self):
        assert CYP_HEME.n_electrons == 1
        assert CYP_HEME.formal_potential < 0

    def test_ferricyanide_is_fast(self):
        # The validation couple must be near-reversible at CV scan rates.
        assert FERRICYANIDE.k0 >= 1e-5
