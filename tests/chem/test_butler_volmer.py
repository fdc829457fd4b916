"""Tests for repro.chem.butler_volmer."""

import pytest

from repro.chem.butler_volmer import rate_constants


class TestRateConstants:
    def test_equal_at_formal_potential(self):
        kf, kb = rate_constants(0.2, 0.2, 1e-5, 0.5, 1)
        assert kf == pytest.approx(kb)
        assert kf == pytest.approx(1e-5)

    def test_reduction_favored_below_formal_potential(self):
        kf, kb = rate_constants(-0.1, 0.0, 1e-5, 0.5, 1)
        assert kf > kb

    def test_oxidation_favored_above_formal_potential(self):
        kf, kb = rate_constants(0.1, 0.0, 1e-5, 0.5, 1)
        assert kb > kf

    def test_product_is_potential_independent_for_symmetric_alpha(self):
        # kf * kb = k0^2 for alpha = 0.5 at any potential.
        kf1, kb1 = rate_constants(0.05, 0.0, 1e-5, 0.5, 1)
        kf2, kb2 = rate_constants(-0.17, 0.0, 1e-5, 0.5, 1)
        assert kf1 * kb1 == pytest.approx(kf2 * kb2, rel=1e-9)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            rate_constants(0.0, 0.0, 1e-5, 1.5, 1)
