"""Tests for repro.pk.dosing (schedules and superposition)."""

import numpy as np
import pytest

from repro.pk.dosing import (
    DoseEvent,
    DoseSchedule,
    concentration_from_doses,
    steady_state_trough_per_mol,
)
from repro.pk.models import OneCompartmentPK, Route


@pytest.fixture()
def params():
    return OneCompartmentPK(clearance_l_per_h=6.0, volume_l=50.0,
                            ka_per_h=1.2, bioavailability=0.6).params()


class TestDoseEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            DoseEvent(time_h=-1.0, dose_mol=1e-4)
        with pytest.raises(ValueError):
            DoseEvent(time_h=0.0, dose_mol=-1e-4)
        with pytest.raises(ValueError):
            DoseEvent(time_h=0.0, dose_mol=1e-4, route=Route.INFUSION)
        with pytest.raises(ValueError):
            DoseEvent(time_h=0.0, dose_mol=1e-4, duration_h=1.0)


class TestDoseSchedule:
    def test_regimen_builder(self):
        schedule = DoseSchedule.regimen(2e-4, 12.0, 4)
        assert schedule.n_doses == 4
        assert [e.time_h for e in schedule.events] == [0.0, 12.0, 24.0, 36.0]

    def test_events_sorted(self):
        schedule = DoseSchedule(events=(
            DoseEvent(time_h=12.0, dose_mol=1e-4),
            DoseEvent(time_h=0.0, dose_mol=2e-4)))
        assert [e.time_h for e in schedule.events] == [0.0, 12.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DoseSchedule(events=())

    def test_superposition_equals_manual_sum(self, params):
        schedule = DoseSchedule.regimen(2e-4, 12.0, 3)
        t = np.linspace(0.0, 48.0, 97)
        total = schedule.concentration(params, t)
        manual = sum(
            2e-4 * params.unit_response(t[None, :] - t0, Route.ORAL)
            for t0 in (0.0, 12.0, 24.0))
        np.testing.assert_allclose(total, manual, rtol=0, atol=1e-18)

    def test_mixed_routes(self, params):
        schedule = DoseSchedule(events=(
            DoseEvent(time_h=0.0, dose_mol=1e-4, route=Route.IV_BOLUS),
            DoseEvent(time_h=6.0, dose_mol=2e-4, route=Route.ORAL)))
        c = schedule.concentration(params, np.array([0.0, 7.0]))
        assert c[0, 0] == pytest.approx(1e-4 / 50.0)
        assert c[0, 1] > 0.0


class TestConcentrationFromDoses:
    def test_per_patient_doses(self, params):
        cohort = np.concatenate([params.clearance_l_per_h] * 3)
        from repro.pk.models import PKParams
        p3 = PKParams(clearance_l_per_h=cohort,
                      volume_l=np.full(3, 50.0),
                      ka_per_h=np.full(3, 1.2),
                      bioavailability=np.full(3, 0.6))
        doses = np.array([[1e-4, 1e-4],
                          [2e-4, 2e-4],
                          [4e-4, 4e-4]])
        c = concentration_from_doses(
            np.array([6.0, 18.0]), np.array([0.0, 12.0]), doses, p3)
        assert c.shape == (3, 2)
        # Identical patients, linear model: doubling doses doubles levels.
        np.testing.assert_allclose(c[1], 2.0 * c[0], rtol=1e-12)
        np.testing.assert_allclose(c[2], 4.0 * c[0], rtol=1e-12)

    def test_shared_dose_vector_broadcasts(self, params):
        c_shared = concentration_from_doses(
            np.array([6.0]), np.array([0.0]), 1e-4, params)
        c_explicit = concentration_from_doses(
            np.array([6.0]), np.array([0.0]), np.array([[1e-4]]), params)
        np.testing.assert_array_equal(c_shared, c_explicit)

    def test_shape_mismatch_rejected(self, params):
        with pytest.raises(ValueError):
            concentration_from_doses(
                np.array([6.0]), np.array([0.0, 12.0]),
                np.array([1e-4]), params)

    def test_negative_dose_rejected(self, params):
        with pytest.raises(ValueError):
            concentration_from_doses(
                np.array([6.0]), np.array([0.0]),
                np.array([-1e-4]), params)


class TestSteadyStateTrough:
    def test_matches_long_regimen(self, params):
        per_mol = steady_state_trough_per_mol(params, 12.0)
        schedule = DoseSchedule.regimen(1e-3, 12.0, 300)
        trough = schedule.concentration(
            params, np.array([300 * 12.0]))[:, 0]
        np.testing.assert_allclose(per_mol * 1e-3, trough, rtol=1e-12)

    def test_shorter_interval_raises_trough(self, params):
        q12 = steady_state_trough_per_mol(params, 12.0)
        q8 = steady_state_trough_per_mol(params, 8.0)
        assert np.all(q8 > q12)

    def test_validation(self, params):
        with pytest.raises(ValueError):
            steady_state_trough_per_mol(params, 0.0)
        with pytest.raises(ValueError):
            steady_state_trough_per_mol(params, 12.0, n_doses=0)
