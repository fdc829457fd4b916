"""Tests for repro.chem.randles_sevcik."""

import pytest
from hypothesis import given, strategies as st

from repro.chem.randles_sevcik import (
    peak_current_reversible,
    peak_separation_reversible,
)

rates = st.floats(min_value=1e-3, max_value=10.0,
                  allow_nan=False, allow_infinity=False)


class TestReversiblePeak:
    def test_textbook_coefficient(self):
        # ip = 2.69e5 n^3/2 A D^1/2 C v^1/2 (A in cm^2, C mol/cm^3, D cm^2/s)
        area_cm2, d_cm2_s, conc_mol_cm3, rate = 0.07, 6.7e-6, 1e-6, 0.1
        classic = 2.69e5 * area_cm2 * (d_cm2_s ** 0.5) * conc_mol_cm3 * rate ** 0.5
        ours = peak_current_reversible(1, area_cm2 * 1e-4, d_cm2_s * 1e-4,
                                       1e-3, rate)
        assert ours == pytest.approx(classic, rel=5e-3)

    @given(rates)
    def test_sqrt_scan_rate_scaling(self, rate):
        i1 = peak_current_reversible(1, 1e-5, 7e-10, 1e-3, rate)
        i2 = peak_current_reversible(1, 1e-5, 7e-10, 1e-3, 4.0 * rate)
        assert i2 == pytest.approx(2.0 * i1, rel=1e-9)

    def test_linear_in_concentration(self):
        i1 = peak_current_reversible(1, 1e-5, 7e-10, 1e-3, 0.1)
        i2 = peak_current_reversible(1, 1e-5, 7e-10, 3e-3, 0.1)
        assert i2 == pytest.approx(3.0 * i1)

    def test_n_three_halves_scaling(self):
        i1 = peak_current_reversible(1, 1e-5, 7e-10, 1e-3, 0.1)
        i2 = peak_current_reversible(2, 1e-5, 7e-10, 1e-3, 0.1)
        assert i2 == pytest.approx(i1 * 2 ** 1.5, rel=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            peak_current_reversible(1, 0.0, 7e-10, 1e-3, 0.1)
        with pytest.raises(ValueError):
            peak_current_reversible(1, 1e-5, 7e-10, 1e-3, 0.0)


class TestPeakSeparation:
    def test_57mv_for_one_electron(self):
        assert peak_separation_reversible(1) == pytest.approx(0.057, abs=1e-3)

    def test_halves_for_two_electrons(self):
        assert peak_separation_reversible(2) \
            == pytest.approx(peak_separation_reversible(1) / 2)
