"""Tests for repro.system.energy."""

import pytest

from repro.system.composition import reference_biosensor_node
from repro.system.energy import EnergyBudget


@pytest.fixture()
def budget():
    return EnergyBudget(design=reference_biosensor_node())


class TestEnergyPerMeasurement:
    def test_includes_active_and_radio(self, budget):
        active = budget.design.total_power_mw() * budget.measurement_duration_s
        expected = active + budget.radio_energy_per_report_mj
        assert budget.energy_per_measurement_mj() == pytest.approx(expected)

    def test_radio_free_node_cheaper(self):
        with_radio = EnergyBudget(design=reference_biosensor_node())
        without = EnergyBudget(design=reference_biosensor_node(
            with_radio=False), radio_energy_per_report_mj=0.0)
        assert without.energy_per_measurement_mj() \
            < with_radio.energy_per_measurement_mj()


class TestAveragePower:
    def test_idle_node_sits_at_standby(self, budget):
        assert budget.average_power_mw(0.0) \
            == pytest.approx(budget.standby_power_mw)

    def test_power_grows_with_rate(self, budget):
        assert budget.average_power_mw(4.0) > budget.average_power_mw(1.0)

    def test_duty_cycling_wins_big(self, budget):
        """Hourly panels cost orders of magnitude less than always-on —
        the whole point of duty-cycled biosensing nodes."""
        always_on = budget.design.total_power_mw()
        hourly = budget.average_power_mw(1.0)
        assert hourly < always_on / 10.0


class TestBatteryLife:
    def test_hourly_monitoring_runs_for_weeks(self, budget):
        # A 100 mAh coin cell at one panel per hour.
        days = budget.battery_life_days(100.0, 1.0)
        assert days > 14.0

    def test_life_scales_with_capacity(self, budget):
        d1 = budget.battery_life_days(50.0, 1.0)
        d2 = budget.battery_life_days(100.0, 1.0)
        assert d2 == pytest.approx(2 * d1)

    def test_more_measurements_shorter_life(self, budget):
        assert budget.battery_life_days(100.0, 12.0) \
            < budget.battery_life_days(100.0, 1.0)

    def test_rejects_bad_inputs(self, budget):
        with pytest.raises(ValueError):
            budget.battery_life_days(0.0, 1.0)
