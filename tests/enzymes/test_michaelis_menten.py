"""Tests for repro.enzymes.michaelis_menten, including property tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.enzymes.michaelis_menten import (
    fractional_deviation_from_linearity,
    km_for_linear_range,
    linear_range_upper,
    michaelis_menten_rate,
)

kms = st.floats(min_value=1e-7, max_value=1.0,
                allow_nan=False, allow_infinity=False)
concs = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)
tols = st.floats(min_value=0.01, max_value=0.5,
                 allow_nan=False, allow_infinity=False)


class TestRate:
    def test_half_vmax_at_km(self):
        assert michaelis_menten_rate(1e-3, 10.0, 1e-3) == pytest.approx(5.0)

    def test_zero_at_zero_concentration(self):
        assert michaelis_menten_rate(0.0, 10.0, 1e-3) == 0.0

    def test_saturates_at_vmax(self):
        assert michaelis_menten_rate(1.0, 10.0, 1e-3) \
            == pytest.approx(10.0, rel=1e-2)

    @given(kms, concs, concs)
    def test_monotonic_in_concentration(self, km, c1, c2):
        v1 = michaelis_menten_rate(min(c1, c2), 1.0, km)
        v2 = michaelis_menten_rate(max(c1, c2), 1.0, km)
        assert v2 >= v1

    def test_vectorized(self):
        rates = michaelis_menten_rate(np.array([0.0, 1e-3, 1.0]), 10.0, 1e-3)
        assert rates.shape == (3,)

    def test_rejects_negative_concentration(self):
        with pytest.raises(ValueError):
            michaelis_menten_rate(-1e-3, 10.0, 1e-3)


class TestLinearRange:
    def test_deviation_half_at_km(self):
        assert fractional_deviation_from_linearity(1e-3, 1e-3) \
            == pytest.approx(0.5)

    @given(kms, tols)
    def test_upper_limit_has_exactly_tolerance_deviation(self, km, tol):
        upper = linear_range_upper(km, tol)
        assert fractional_deviation_from_linearity(upper, km) \
            == pytest.approx(tol, rel=1e-9)

    @given(kms, tols)
    def test_km_inversion_roundtrip(self, km, tol):
        upper = linear_range_upper(km, tol)
        assert km_for_linear_range(upper, tol) == pytest.approx(km, rel=1e-9)

    def test_ten_percent_rule(self):
        # 10 % criterion: linear range ends at Km/9.
        assert linear_range_upper(9.0e-3, 0.1) == pytest.approx(1.0e-3)

    def test_registry_inversion_example(self):
        # Paper glucose range 0-1 mM -> Km_app = 9 mM at 10 % tolerance.
        assert km_for_linear_range(1e-3, 0.1) == pytest.approx(9e-3)
