"""Tests for repro.therapy.controllers (dosing policies)."""

import numpy as np
import pytest

from repro.pk.models import OneCompartmentPK, Route
from repro.pk.dosing import steady_state_trough_per_mol
from repro.therapy.controllers import (
    BayesianTroughController,
    ControllerObservation,
    FixedRegimenController,
    ProportionalTroughController,
    RegimenSpec,
)

TARGET = 3.0e-6


@pytest.fixture()
def prior():
    return OneCompartmentPK(clearance_l_per_h=7.0, volume_l=80.0,
                            ka_per_h=0.7, bioavailability=0.4)


@pytest.fixture()
def regimen():
    return RegimenSpec(dose_interval_h=12.0, n_doses=6)


def concentration(model, dt_h, dose_mol, route=Route.ORAL,
                  duration_h=0.0):
    """One dose's concentration [mol/L] ``dt_h`` after it."""
    response = model.params().unit_response(np.array([dt_h]), route,
                                            duration_h)
    return dose_mol * float(response[0, 0])


def observation_for(prior, regimen, clearances, doses_mol, k):
    """Noise-free troughs simulated from per-patient true clearances.

    Follows the engine's sampling convention: the trough at a dose
    boundary is read *before* the dose scheduled at that instant, so
    only strictly-past doses (dt > 0) contribute.
    """
    n = clearances.size
    dose_times = np.arange(k) * regimen.dose_interval_h
    trough_times = (np.arange(k) + 1.0) * regimen.dose_interval_h
    troughs = np.zeros((n, k))
    for p in range(n):
        model = OneCompartmentPK(
            clearance_l_per_h=float(clearances[p]),
            volume_l=prior.volume_l, ka_per_h=prior.ka_per_h,
            bioavailability=prior.bioavailability)
        for j, t in enumerate(trough_times):
            troughs[p, j] = sum(
                concentration(model, float(t - t0), float(doses_mol[p, m]),
                              regimen.route, regimen.infusion_duration_h)
                for m, t0 in enumerate(dose_times) if t - t0 > 0)
    return ControllerObservation(
        regimen=regimen, interval_index=k,
        time_h=k * regimen.dose_interval_h,
        dose_times_h=dose_times, doses_mol=doses_mol,
        trough_times_h=trough_times, trough_estimates_molar=troughs)


class TestRegimenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegimenSpec(dose_interval_h=0.0, n_doses=3)
        with pytest.raises(ValueError):
            RegimenSpec(dose_interval_h=12.0, n_doses=0)
        with pytest.raises(ValueError):
            RegimenSpec(dose_interval_h=12.0, n_doses=3,
                        route=Route.INFUSION)


class TestFixedRegimen:
    def test_constant_doses(self, prior, regimen):
        controller = FixedRegimenController(dose_mol=2e-4)
        assert np.all(controller.initial_doses(5, regimen) == 2e-4)
        obs = observation_for(prior, regimen, np.array([7.0]),
                              np.full((1, 2), 2e-4), 2)
        assert np.all(controller.next_doses(obs) == 2e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedRegimenController(dose_mol=-1.0)


class TestProportionalTrough:
    def test_scales_toward_target(self, prior, regimen):
        controller = ProportionalTroughController(
            initial_dose_mol=2e-4, target_trough_molar=TARGET)
        obs = observation_for(prior, regimen, np.array([7.0, 7.0]),
                              np.full((2, 1), 2e-4), 1)
        # Patient 0 trough forced low, patient 1 forced high.
        obs.trough_estimates_molar[0, -1] = 0.5 * TARGET
        obs.trough_estimates_molar[1, -1] = 2.0 * TARGET
        doses = controller.next_doses(obs)
        assert doses[0] == pytest.approx(2e-4 * 2.0)
        assert doses[1] == pytest.approx(2e-4 * 0.5)

    def test_adjustment_clamped(self, prior, regimen):
        controller = ProportionalTroughController(
            initial_dose_mol=2e-4, target_trough_molar=TARGET,
            max_adjust=1.5)
        obs = observation_for(prior, regimen, np.array([7.0]),
                              np.full((1, 1), 2e-4), 1)
        obs.trough_estimates_molar[0, -1] = 0.0  # sensor dropout
        dose = float(controller.next_doses(obs)[0])
        assert dose == pytest.approx(2e-4 * 1.5)

    def test_dose_clamps(self, prior, regimen):
        controller = ProportionalTroughController(
            initial_dose_mol=2e-4, target_trough_molar=TARGET,
            dose_max_mol=2.2e-4)
        obs = observation_for(prior, regimen, np.array([7.0]),
                              np.full((1, 1), 2e-4), 1)
        obs.trough_estimates_molar[0, -1] = 0.1 * TARGET
        assert float(controller.next_doses(obs)[0]) == pytest.approx(2.2e-4)


class TestBayesianTrough:
    def test_initial_dose_hits_prior_steady_state(self, prior, regimen):
        controller = BayesianTroughController(
            prior=prior, target_trough_molar=TARGET)
        dose = float(controller.initial_doses(3, regimen)[0])
        per_mol = float(steady_state_trough_per_mol(
            prior.params(), regimen.dose_interval_h)[0])
        assert dose * per_mol == pytest.approx(TARGET)

    def test_map_recovers_true_clearance(self, prior, regimen):
        """Noise-free troughs from known clearances: the MAP estimate
        lands within the grid resolution of the truth."""
        controller = BayesianTroughController(
            prior=prior, target_trough_molar=TARGET,
            observation_sigma_molar=1e-8, n_grid=241)
        true_cl = np.array([2.5, 7.0, 13.0])  # PM, EM, UM
        doses = np.full((3, 3), 8e-4)
        obs = observation_for(prior, regimen, true_cl, doses, 3)
        estimate = controller.map_clearance(obs)
        np.testing.assert_allclose(estimate, true_cl, rtol=0.05)

    def test_map_recovers_clearance_on_iv_bolus_regimen(self, prior):
        """Regression: the IV-bolus kernel is non-zero at dt = 0, so the
        likelihood must exclude the dose administered at the trough
        instant (the engine samples the trough first) — with it
        included, the fit for a typical patient was ~6x high."""
        regimen = RegimenSpec(dose_interval_h=12.0, n_doses=6,
                              route=Route.IV_BOLUS)
        controller = BayesianTroughController(
            prior=prior, target_trough_molar=TARGET,
            observation_sigma_molar=1e-8, n_grid=241)
        true_cl = np.array([2.5, 7.0, 13.0])
        obs = observation_for(prior, regimen, true_cl,
                              np.full((3, 3), 8e-4), 3)
        np.testing.assert_allclose(controller.map_clearance(obs),
                                   true_cl, rtol=0.05)

    def test_next_trough_lands_on_target(self, prior, regimen):
        """With clearance identified, the proposed dose puts the next
        trough on target (closed-form inversion check)."""
        controller = BayesianTroughController(
            prior=prior, target_trough_molar=TARGET,
            observation_sigma_molar=1e-8, n_grid=481)
        true_cl = np.array([2.5])
        # Light past doses: carryover sits below target, so the
        # inversion is feasible (a heavily pre-dosed poor metabolizer
        # correctly gets a zero dose instead).
        doses = np.full((1, 3), 3e-4)
        obs = observation_for(prior, regimen, true_cl, doses, 3)
        next_dose = controller.next_doses(obs)
        cl_hat = float(controller.map_clearance(obs)[0])
        model = OneCompartmentPK(cl_hat, prior.volume_l, prior.ka_per_h,
                                 prior.bioavailability)
        next_trough_time = obs.time_h + regimen.dose_interval_h
        predicted = sum(
            concentration(model, next_trough_time - t0, float(d))
            for t0, d in zip(obs.dose_times_h, doses[0])) + \
            concentration(model, regimen.dose_interval_h,
                          float(next_dose[0]))
        assert predicted == pytest.approx(TARGET, rel=0.05)

    def test_prior_regularizes_toward_typical(self, prior, regimen):
        """With huge observation noise the MAP stays near the prior."""
        controller = BayesianTroughController(
            prior=prior, target_trough_molar=TARGET,
            observation_sigma_molar=1.0)
        obs = observation_for(prior, regimen, np.array([2.5]),
                              np.full((1, 2), 8e-4), 2)
        estimate = float(controller.map_clearance(obs)[0])
        assert estimate == pytest.approx(prior.clearance_l_per_h, rel=0.05)

    def test_vector_matches_per_patient_slices(self, prior, regimen):
        """The scalar/vector equivalence contract at controller level."""
        controller = BayesianTroughController(
            prior=prior, target_trough_molar=TARGET,
            observation_sigma_molar=2e-7)
        true_cl = np.array([2.5, 7.0, 13.0])
        doses = np.array([[8e-4, 6e-4], [8e-4, 8e-4], [8e-4, 1e-3]])
        obs = observation_for(prior, regimen, true_cl, doses, 2)
        batch = controller.next_doses(obs)
        for p in range(3):
            single = ControllerObservation(
                regimen=regimen, interval_index=2, time_h=obs.time_h,
                dose_times_h=obs.dose_times_h,
                doses_mol=obs.doses_mol[p:p + 1],
                trough_times_h=obs.trough_times_h,
                trough_estimates_molar=(
                    obs.trough_estimates_molar[p:p + 1]))
            assert float(controller.next_doses(single)[0]) == batch[p]

    def test_dose_clamps_apply(self, prior, regimen):
        controller = BayesianTroughController(
            prior=prior, target_trough_molar=TARGET,
            observation_sigma_molar=1e-8, dose_max_mol=5e-4)
        obs = observation_for(prior, regimen, np.array([20.0]),
                              np.full((1, 2), 1e-4), 2)
        assert float(controller.next_doses(obs)[0]) <= 5e-4

    def test_validation(self, prior):
        with pytest.raises(ValueError):
            BayesianTroughController(prior=prior, target_trough_molar=0.0)
        with pytest.raises(ValueError):
            BayesianTroughController(prior=prior,
                                     target_trough_molar=TARGET,
                                     clearance_cv=0.0)
        with pytest.raises(ValueError):
            BayesianTroughController(prior=prior,
                                     target_trough_molar=TARGET,
                                     n_grid=2)
