"""Tests for repro.chem.doublelayer."""

import numpy as np
import pytest

from repro.chem.doublelayer import DoubleLayer


@pytest.fixture()
def layer():
    return DoubleLayer(capacitance_per_area=0.2, series_resistance=100.0)


class TestValidation:
    def test_rejects_non_positive_capacitance(self):
        with pytest.raises(ValueError):
            DoubleLayer(capacitance_per_area=0.0)

    def test_rejects_negative_resistance(self):
        with pytest.raises(ValueError):
            DoubleLayer(capacitance_per_area=0.2, series_resistance=-1.0)


class TestStatics(object):
    def test_capacitance_scales_with_area(self, layer):
        assert layer.capacitance(2e-6) == pytest.approx(2 * layer.capacitance(1e-6))

    def test_time_constant(self, layer):
        # 0.2 F/m^2 * 1 mm^2 = 0.2 uF; tau = 100 * 0.2e-6 = 20 us.
        assert layer.time_constant(1e-6) == pytest.approx(2e-5)


class TestStepTransient:
    def test_initial_current_is_step_over_resistance(self, layer):
        transient = layer.step_transient(np.array([0.0]), 0.65, 1e-6)
        assert transient[0] == pytest.approx(0.65 / 100.0)

    def test_decays_with_time_constant(self, layer):
        tau = layer.time_constant(1e-6)
        transient = layer.step_transient(np.array([0.0, tau]), 1.0, 1e-6)
        assert transient[1] / transient[0] == pytest.approx(np.exp(-1.0))

    def test_total_charge_matches(self, layer):
        tau = layer.time_constant(1e-6)
        times = np.linspace(0.0, 20 * tau, 20000)
        transient = layer.step_transient(times, 0.65, 1e-6)
        charge = np.trapezoid(transient, times)
        assert charge == pytest.approx(0.65 * layer.capacitance(1e-6),
                                       rel=1e-3)

    def test_zero_resistance_gives_no_transient(self):
        ideal = DoubleLayer(capacitance_per_area=0.2, series_resistance=0.0)
        transient = ideal.step_transient(np.array([0.0, 1.0]), 1.0, 1e-6)
        assert np.all(transient == 0.0)

    def test_rejects_negative_times(self, layer):
        with pytest.raises(ValueError):
            layer.step_transient(np.array([-1.0]), 1.0, 1e-6)
