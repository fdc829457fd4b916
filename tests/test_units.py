"""Tests for repro.units, including round-trip property tests."""

import pytest
from hypothesis import given, strategies as st

from repro import units

finite_positive = st.floats(min_value=1e-12, max_value=1e12,
                            allow_nan=False, allow_infinity=False)


class TestConcentration:
    def test_millimolar_to_molar(self):
        assert units.molar_from_millimolar(1.0) == pytest.approx(1e-3)

    def test_micromolar_to_molar(self):
        assert units.molar_from_micromolar(2.0) == pytest.approx(2e-6)

    @given(finite_positive)
    def test_molar_millimolar_roundtrip(self, value):
        roundtrip = units.millimolar_from_molar(
            units.molar_from_millimolar(value))
        assert roundtrip == pytest.approx(value, rel=1e-12)

    @given(finite_positive)
    def test_molar_micromolar_roundtrip(self, value):
        roundtrip = units.micromolar_from_molar(
            units.molar_from_micromolar(value))
        assert roundtrip == pytest.approx(value, rel=1e-12)


class TestArea:
    def test_microchip_area(self):
        # 0.25 mm^2 in m^2.
        assert units.square_metre_from_square_millimetre(0.25) \
            == pytest.approx(2.5e-7)


class TestSensitivity:
    def test_paper_unit_to_si(self):
        # 1 uA mM^-1 cm^-2 = 10 A M^-1 m^-2.
        assert units.sensitivity_si_from_paper(1.0) == pytest.approx(10.0)

    @given(finite_positive)
    def test_sensitivity_roundtrip(self, value):
        roundtrip = units.sensitivity_paper_from_si(
            units.sensitivity_si_from_paper(value))
        assert roundtrip == pytest.approx(value, rel=1e-12)

    def test_slope_for_paper_glucose_sensor(self):
        # 55.5 uA/mM/cm^2 on 0.25 mm^2: 55.5e-6/1e-3/1e-4 * 2.5e-7 A/M.
        slope = units.slope_ampere_per_molar(55.5, 2.5e-7)
        assert slope == pytest.approx(1.3875e-4, rel=1e-6)

    @given(finite_positive, st.floats(min_value=1e-9, max_value=1.0))
    def test_slope_sensitivity_roundtrip(self, sensitivity, area):
        slope = units.slope_ampere_per_molar(sensitivity, area)
        recovered = units.sensitivity_paper_from_slope(slope, area)
        assert recovered == pytest.approx(sensitivity, rel=1e-9)

    def test_slope_rejects_bad_area(self):
        with pytest.raises(ValueError):
            units.slope_ampere_per_molar(1.0, 0.0)
        with pytest.raises(ValueError):
            units.sensitivity_paper_from_slope(1.0, -1.0)
