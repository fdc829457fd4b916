"""Tests for repro.enzymes.inhibition."""

import pytest
from hypothesis import given, strategies as st

from repro.enzymes.inhibition import (
    InhibitionType,
    Inhibitor,
    apparent_parameters,
)

inhibitor_concs = st.floats(min_value=0.0, max_value=1e-3,
                            allow_nan=False, allow_infinity=False)


def make_inhibitor(mode: InhibitionType, ki: float = 50e-6) -> Inhibitor:
    return Inhibitor(name="co-drug", ki_molar=ki, mode=mode)


class TestApparentParameters:
    def test_competitive_raises_km_only(self):
        inhibitor = make_inhibitor(InhibitionType.COMPETITIVE)
        vmax, km = apparent_parameters(10.0, 1e-3, inhibitor, 50e-6)
        assert vmax == pytest.approx(10.0)
        assert km == pytest.approx(2e-3)

    def test_noncompetitive_lowers_vmax_only(self):
        inhibitor = make_inhibitor(InhibitionType.NONCOMPETITIVE)
        vmax, km = apparent_parameters(10.0, 1e-3, inhibitor, 50e-6)
        assert vmax == pytest.approx(5.0)
        assert km == pytest.approx(1e-3)

    def test_uncompetitive_lowers_both(self):
        inhibitor = make_inhibitor(InhibitionType.UNCOMPETITIVE)
        vmax, km = apparent_parameters(10.0, 1e-3, inhibitor, 50e-6)
        assert vmax == pytest.approx(5.0)
        assert km == pytest.approx(0.5e-3)

    def test_zero_inhibitor_changes_nothing(self):
        for mode in InhibitionType:
            inhibitor = make_inhibitor(mode)
            vmax, km = apparent_parameters(10.0, 1e-3, inhibitor, 0.0)
            assert vmax == pytest.approx(10.0)
            assert km == pytest.approx(1e-3)

    @given(inhibitor_concs,
           st.sampled_from(list(InhibitionType)))
    def test_sensitivity_never_increases(self, conc, mode):
        """The low-concentration slope Vmax/Km never improves under
        inhibition — the property securing multi-drug calibration safety."""
        inhibitor = make_inhibitor(mode)
        vmax, km = apparent_parameters(10.0, 1e-3, inhibitor, conc)
        free_slope = 10.0 / 1e-3
        assert vmax / km <= free_slope * (1.0 + 1e-9)


class TestValidation:
    def test_rejects_non_positive_ki(self):
        with pytest.raises(ValueError):
            Inhibitor(name="bad", ki_molar=0.0,
                      mode=InhibitionType.COMPETITIVE)

    def test_rejects_negative_inhibitor_concentration(self):
        inhibitor = make_inhibitor(InhibitionType.COMPETITIVE)
        with pytest.raises(ValueError):
            inhibitor.saturation_factor(-1e-6)
