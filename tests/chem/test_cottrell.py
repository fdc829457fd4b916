"""Tests for repro.chem.cottrell."""

import numpy as np
import pytest

from repro.chem.cottrell import cottrell_charge, cottrell_current


class TestCottrellCurrent:
    def test_inverse_sqrt_time_decay(self):
        i1 = cottrell_current(1.0, 1, 1e-6, 1e-3, 7e-10)
        i4 = cottrell_current(4.0, 1, 1e-6, 1e-3, 7e-10)
        assert i1 == pytest.approx(2.0 * i4, rel=1e-12)

    def test_linear_in_concentration(self):
        i1 = cottrell_current(1.0, 1, 1e-6, 1e-3, 7e-10)
        i2 = cottrell_current(1.0, 1, 1e-6, 2e-3, 7e-10)
        assert i2 == pytest.approx(2.0 * i1)

    def test_linear_in_area_and_electrons(self):
        base = cottrell_current(1.0, 1, 1e-6, 1e-3, 7e-10)
        assert cottrell_current(1.0, 2, 2e-6, 1e-3, 7e-10) \
            == pytest.approx(4.0 * base)

    def test_textbook_value(self):
        # n=1, A=1 cm^2, C=1 mM, D=1e-5 cm^2/s at t=1 s:
        # i = nFAC sqrt(D/pi t) = 96485*1e-4m2*1mol/m3*sqrt(1e-9/pi) ~ 172 uA.
        i = cottrell_current(1.0, 1, 1e-4, 1e-3, 1e-9)
        assert i == pytest.approx(172e-6, rel=2e-2)

    def test_array_input(self):
        times = np.array([0.5, 1.0, 2.0])
        values = cottrell_current(times, 1, 1e-6, 1e-3, 7e-10)
        assert values.shape == times.shape
        assert np.all(np.diff(values) < 0)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError, match="diverges"):
            cottrell_current(0.0, 1, 1e-6, 1e-3, 7e-10)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            cottrell_current(1.0, 1, 0.0, 1e-3, 7e-10)
        with pytest.raises(ValueError):
            cottrell_current(1.0, 1, 1e-6, -1e-3, 7e-10)
        with pytest.raises(ValueError):
            cottrell_current(1.0, 1, 1e-6, 1e-3, 0.0)


class TestCottrellCharge:
    def test_charge_is_current_integral(self):
        # Q(t) = integral of i: check numerically.
        times = np.linspace(1e-4, 2.0, 20000)
        currents = cottrell_current(times, 1, 1e-6, 1e-3, 7e-10)
        numeric = np.trapezoid(currents, times)
        analytic = (cottrell_charge(2.0, 1, 1e-6, 1e-3, 7e-10)
                    - cottrell_charge(1e-4, 1, 1e-6, 1e-3, 7e-10))
        assert numeric == pytest.approx(analytic, rel=1e-3)

    def test_charge_zero_at_zero_time(self):
        assert cottrell_charge(0.0, 1, 1e-6, 1e-3, 7e-10) == 0.0

    def test_sqrt_time_growth(self):
        q1 = cottrell_charge(1.0, 1, 1e-6, 1e-3, 7e-10)
        q4 = cottrell_charge(4.0, 1, 1e-6, 1e-3, 7e-10)
        assert q4 == pytest.approx(2.0 * q1)
