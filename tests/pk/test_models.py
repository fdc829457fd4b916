"""Tests for repro.pk.models (compartmental PK kernels)."""

import numpy as np
import pytest

from repro.pk.models import (
    OneCompartmentPK,
    PKParams,
    Route,
    _two_compartment_exponents,
    one_compartment_bolus_batch,
    one_compartment_infusion_batch,
    one_compartment_oral_batch,
    two_compartment_bolus_batch,
    two_compartment_oral_batch,
)


@pytest.fixture()
def one_cpt():
    return OneCompartmentPK(clearance_l_per_h=6.0, volume_l=50.0,
                            ka_per_h=1.2, bioavailability=0.6)


#: One two-compartment patient: CL, V1, Q, V2, ka, F.
TWO_CPT = (6.0, 30.0, 9.0, 60.0, 1.2, 0.6)


@pytest.fixture()
def two_cpt():
    cl, v1, q, v2, ka, f = (np.array([value]) for value in TWO_CPT)
    return PKParams(clearance_l_per_h=cl, volume_l=v1, ka_per_h=ka,
                    bioavailability=f, intercompartmental_l_per_h=q,
                    volume_peripheral_l=v2)


def _concentration(model, t, dose_mol, route, duration_h=0.0):
    """One dose's concentration [mol/L] for a scalar model or PKParams."""
    if isinstance(model, PKParams):
        return dose_mol * model.unit_response(t, route, duration_h)[0]
    return model.concentration(t, dose_mol, route, duration_h)


def _auc(c, t):
    return float(np.trapezoid(c, t))


class TestMassBalance:
    """AUC = F*D/CL is the model-free invariant every kernel must obey."""

    def test_one_compartment_bolus(self, one_cpt):
        t = np.linspace(0.0, 400.0, 200001)
        c = one_cpt.concentration(t, 1e-3, Route.IV_BOLUS)
        assert _auc(c, t) == pytest.approx(1e-3 / 6.0, rel=1e-4)

    def test_one_compartment_oral(self, one_cpt):
        t = np.linspace(0.0, 400.0, 200001)
        c = one_cpt.concentration(t, 1e-3, Route.ORAL)
        assert _auc(c, t) == pytest.approx(0.6 * 1e-3 / 6.0, rel=1e-4)

    def test_one_compartment_infusion(self, one_cpt):
        t = np.linspace(0.0, 400.0, 200001)
        c = one_cpt.concentration(t, 1e-3, Route.INFUSION, duration_h=3.0)
        assert _auc(c, t) == pytest.approx(1e-3 / 6.0, rel=1e-4)

    def test_two_compartment_bolus(self, two_cpt):
        t = np.linspace(0.0, 600.0, 300001)
        c = _concentration(two_cpt, t, 1e-3, Route.IV_BOLUS)
        assert _auc(c, t) == pytest.approx(1e-3 / 6.0, rel=1e-4)

    def test_two_compartment_oral(self, two_cpt):
        t = np.linspace(0.0, 600.0, 300001)
        c = _concentration(two_cpt, t, 1e-3, Route.ORAL)
        assert _auc(c, t) == pytest.approx(0.6 * 1e-3 / 6.0, rel=1e-4)

    def test_two_compartment_infusion(self, two_cpt):
        t = np.linspace(0.0, 600.0, 300001)
        c = _concentration(two_cpt, t, 1e-3, Route.INFUSION, duration_h=3.0)
        assert _auc(c, t) == pytest.approx(1e-3 / 6.0, rel=1e-4)


class TestShapes:
    def test_future_doses_contribute_zero(self, one_cpt, two_cpt):
        t = np.array([-5.0, -1e-12, 0.0, 1.0])
        for model, route in ((one_cpt, Route.ORAL),
                             (one_cpt, Route.IV_BOLUS),
                             (two_cpt, Route.ORAL)):
            c = _concentration(model, t, 1e-3, route)
            assert c[0] == 0.0 and c[1] == 0.0
            assert c[3] > 0.0

    def test_bolus_initial_concentration(self, one_cpt):
        assert one_cpt.concentration(0.0, 1e-3, Route.IV_BOLUS) \
            == pytest.approx(1e-3 / 50.0)

    def test_oral_starts_at_zero_and_peaks_later(self, one_cpt):
        t = np.linspace(0.0, 48.0, 4801)
        c = one_cpt.concentration(t, 1e-3, Route.ORAL)
        assert c[0] == 0.0
        peak = int(np.argmax(c))
        assert 0 < peak < c.size - 1

    def test_infusion_peaks_at_end_of_infusion(self, one_cpt):
        t = np.linspace(0.0, 24.0, 2401)
        c = one_cpt.concentration(t, 1e-3, Route.INFUSION, duration_h=2.0)
        assert t[int(np.argmax(c))] == pytest.approx(2.0)

    def test_scalar_in_scalar_out(self, one_cpt):
        assert isinstance(one_cpt.concentration(3.0, 1e-3), float)

    def test_batch_matches_scalar_rows(self):
        cl = np.array([4.0, 6.0, 9.0])
        v = np.array([40.0, 50.0, 60.0])
        t = np.linspace(0.0, 24.0, 49)
        batch = one_compartment_bolus_batch(t[None, :], cl, v)
        assert batch.shape == (3, 49)
        for i in range(3):
            row = one_compartment_bolus_batch(t, cl[i], v[i])
            np.testing.assert_allclose(batch[i], row, rtol=0, atol=0)

    def test_half_life(self, one_cpt):
        c0 = one_cpt.concentration(1.0, 1e-3, Route.IV_BOLUS)
        c1 = one_cpt.concentration(1.0 + one_cpt.half_life_h, 1e-3,
                                   Route.IV_BOLUS)
        assert c1 == pytest.approx(0.5 * c0)


class TestNumericalEdges:
    def test_flip_flop_limit_is_continuous(self):
        t = np.linspace(0.01, 24.0, 200)
        exact = one_compartment_oral_batch(t, 8.0, 10.0, 0.8, 1.0)
        near = one_compartment_oral_batch(t, 8.0, 10.0, 0.8 * (1 + 1e-7),
                                          1.0)
        assert np.max(np.abs(exact - near)) / np.max(exact) < 1e-5

    def test_two_compartment_is_biexponential(self, two_cpt):
        alpha, beta, _, _ = _two_compartment_exponents(
            *(np.array([value]) for value in TWO_CPT[:4]))
        alpha, beta = float(alpha[0, 0]), float(beta[0, 0])
        assert alpha > beta > 0
        # Terminal slope matches beta.
        t = np.array([80.0, 90.0])
        c = _concentration(two_cpt, t, 1e-3, Route.IV_BOLUS)
        slope = -np.log(c[1] / c[0]) / 10.0
        assert slope == pytest.approx(beta, rel=1e-3)

    def test_two_compartment_collapses_to_one(self):
        """Vanishing peripheral exchange reproduces the 1-cpt curve."""
        t = np.linspace(0.0, 48.0, 481)
        two = two_compartment_bolus_batch(t, 6.0, 50.0, 1e-9, 1e-6)
        one = one_compartment_bolus_batch(t, 6.0, 50.0)
        np.testing.assert_allclose(two, one, rtol=1e-6)

    def test_infusion_requires_duration(self):
        with pytest.raises(ValueError):
            one_compartment_infusion_batch(np.array([1.0]), 0.0, 6.0, 50.0)


class TestPKParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PKParams(clearance_l_per_h=np.array([-1.0]),
                     volume_l=np.array([50.0]),
                     ka_per_h=np.array([1.0]),
                     bioavailability=np.array([1.0]))
        with pytest.raises(ValueError):
            PKParams(clearance_l_per_h=np.array([1.0]),
                     volume_l=np.array([50.0]),
                     ka_per_h=np.array([1.0]),
                     bioavailability=np.array([1.5]))
        with pytest.raises(ValueError):  # Q without V2
            PKParams(clearance_l_per_h=np.array([1.0]),
                     volume_l=np.array([50.0]),
                     ka_per_h=np.array([1.0]),
                     bioavailability=np.array([1.0]),
                     intercompartmental_l_per_h=np.array([5.0]))

    def test_unit_response_dispatch(self, one_cpt, two_cpt):
        t = np.linspace(0.0, 24.0, 49)
        np.testing.assert_array_equal(
            one_cpt.params().unit_response(t, Route.IV_BOLUS)[0],
            one_compartment_bolus_batch(t, 6.0, 50.0))
        np.testing.assert_array_equal(
            two_cpt.unit_response(t, Route.ORAL)[0],
            two_compartment_oral_batch(t, 6.0, 30.0, 9.0, 60.0, 1.2, 0.6))

    def test_patient_slice(self, one_cpt):
        params = PKParams(
            clearance_l_per_h=np.array([4.0, 6.0]),
            volume_l=np.array([40.0, 50.0]),
            ka_per_h=np.array([1.0, 1.2]),
            bioavailability=np.array([0.5, 0.6]))
        sliced = params.patient(1)
        assert sliced.n_patients == 1
        assert float(sliced.clearance_l_per_h[0]) == 6.0
        assert not sliced.two_compartment
