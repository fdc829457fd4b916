"""Tests for repro.pk.dosing (superposition of dose regimens)."""

import numpy as np
import pytest

from repro.pk.dosing import (
    concentration_from_doses,
    steady_state_trough_per_mol,
)
from repro.pk.models import OneCompartmentPK, Route


@pytest.fixture()
def params():
    return OneCompartmentPK(clearance_l_per_h=6.0, volume_l=50.0,
                            ka_per_h=1.2, bioavailability=0.6).params()


class TestConcentrationFromDoses:
    def test_superposition_equals_manual_sum(self, params):
        t = np.linspace(0.0, 48.0, 97)
        total = concentration_from_doses(
            t, np.array([0.0, 12.0, 24.0]), 2e-4, params)
        manual = sum(
            2e-4 * params.unit_response(t[None, :] - t0, Route.ORAL)
            for t0 in (0.0, 12.0, 24.0))
        np.testing.assert_allclose(total, manual, rtol=0, atol=1e-18)

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
        trough = concentration_from_doses(
            np.array([300 * 12.0]), 12.0 * np.arange(300), 1e-3,
            params)[:, 0]
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
