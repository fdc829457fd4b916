"""Tests for repro.transducers (the section 2.3 taxonomy models)."""

import math

import numpy as np
import pytest

from repro.chem.impedance import RandlesCircuit
from repro.transducers.immunosensor import FaradicImmunosensor
from repro.transducers.potentiometric import IonSelectiveElectrode
from repro.transducers.qcm import QuartzCrystalMicrobalance, sauerbrey_shift_hz
from repro.transducers.spr import SprSensor


class TestSpr:
    def test_angle_shift_monotone(self):
        sensor = SprSensor()
        low = sensor.angle_shift_millideg(1e-10)
        high = sensor.angle_shift_millideg(1e-8)
        assert 0 < low < high

    def test_saturates_at_full_scale(self):
        sensor = SprSensor()
        full = (sensor.angle_sensitivity_deg_per_riu
                * sensor.max_index_shift * 1e3)
        assert sensor.angle_shift_millideg(1e-3) == pytest.approx(full,
                                                                  rel=1e-3)

    def test_half_signal_at_kd(self):
        sensor = SprSensor(kd_molar=2e-9)
        full = (sensor.angle_sensitivity_deg_per_riu
                * sensor.max_index_shift * 1e3)
        assert sensor.angle_shift_millideg(2e-9) == pytest.approx(full / 2)

    def test_lod_sub_kd(self):
        sensor = SprSensor()
        lod = sensor.limit_of_detection_molar()
        assert 0 < lod < sensor.kd_molar

    def test_lod_gives_three_sigma_signal(self):
        sensor = SprSensor()
        shift = sensor.angle_shift_millideg(sensor.limit_of_detection_molar())
        assert shift == pytest.approx(3 * sensor.noise_millideg, rel=1e-6)

    def test_noise_reproducible(self):
        sensor = SprSensor()
        a = sensor.angle_shift_millideg(1e-9, np.random.default_rng(3))
        b = sensor.angle_shift_millideg(1e-9, np.random.default_rng(3))
        assert a == b


class TestQcm:
    def test_sauerbrey_negative_for_added_mass(self):
        assert sauerbrey_shift_hz(10e6, 1e-6) < 0

    def test_sauerbrey_textbook_value(self):
        # 5 MHz crystal, 1 ug/cm^2 -> ~ -56.6 Hz (C_f ~ 56.6 Hz cm^2/ug).
        shift = sauerbrey_shift_hz(5e6, 1e-9 * 1e4)  # 1 ug/cm^2 in kg/m^2
        assert shift == pytest.approx(-56.6, rel=0.05)

    def test_shift_quadratic_in_fundamental(self):
        assert sauerbrey_shift_hz(10e6, 1e-6) \
            == pytest.approx(4 * sauerbrey_shift_hz(5e6, 1e-6), rel=1e-9)

    def test_bound_mass_saturates(self):
        qcm = QuartzCrystalMicrobalance()
        assert qcm.bound_mass_kg_m2(1e-3) == pytest.approx(
            qcm.receptor_density_m2 * qcm.target_mass_kg, rel=1e-3)

    def test_frequency_shift_grows_with_concentration(self):
        qcm = QuartzCrystalMicrobalance()
        assert abs(qcm.frequency_shift_hz(1e-8)) \
            > abs(qcm.frequency_shift_hz(1e-10))

    def test_lod_finite_and_sub_kd(self):
        qcm = QuartzCrystalMicrobalance()
        lod = qcm.limit_of_detection_molar()
        assert 0 < lod < qcm.kd_molar

    def test_deaf_crystal_has_no_lod(self):
        qcm = QuartzCrystalMicrobalance(receptor_density_m2=1e10,
                                        noise_hz=100.0)
        assert qcm.limit_of_detection_molar() == float("inf")


class TestIonSelectiveElectrode:
    def test_nernstian_slope_59mv(self):
        ise = IonSelectiveElectrode(ion_charge=1)
        assert ise.slope_v_per_decade() == pytest.approx(0.05916, rel=1e-3)

    def test_divalent_ion_half_slope(self):
        ise = IonSelectiveElectrode(ion_charge=2)
        assert ise.slope_v_per_decade() == pytest.approx(0.02958, rel=1e-3)

    def test_decade_step_in_potential(self):
        ise = IonSelectiveElectrode(ion_charge=1,
                                    detection_floor_molar=1e-9)
        step = ise.potential_v(1e-3) - ise.potential_v(1e-4)
        assert step == pytest.approx(ise.slope_v_per_decade(), rel=1e-2)

    def test_anion_slope_inverted(self):
        ise = IonSelectiveElectrode(ion_charge=-1,
                                    detection_floor_molar=1e-9)
        assert ise.potential_v(1e-3) < ise.potential_v(1e-4)

    def test_interference_adds_apparent_activity(self):
        ise = IonSelectiveElectrode(
            ion_charge=1,
            selectivity={"K+": 0.01},
            interferent_charges={"K+": 1},
        )
        error = (ise.effective_activity(1e-4, {"K+": 1e-2})
                 - ise.effective_activity(1e-4, None))
        assert error == pytest.approx(1e-4, rel=1e-6)  # 0.01 * 1e-2

    def test_unlisted_interferent_ignored(self):
        ise = IonSelectiveElectrode(ion_charge=1)
        assert ise.effective_activity(1e-4, {"Na+": 1.0}) \
            == ise.effective_activity(1e-4, None)

    def test_floor_flattens_response(self):
        ise = IonSelectiveElectrode(ion_charge=1,
                                    detection_floor_molar=1e-6)
        step = ise.potential_v(1e-8) - ise.potential_v(1e-9)
        assert abs(step) < 0.001  # flat below the floor

    def test_missing_charge_number_rejected(self):
        with pytest.raises(ValueError, match="charge"):
            IonSelectiveElectrode(ion_charge=1, selectivity={"K+": 0.1})


class TestFaradicImmunosensor:
    @pytest.fixture()
    def sensor(self):
        return FaradicImmunosensor(
            baseline=RandlesCircuit(100.0, 5_000.0, 1e-6),
            kd_molar=1e-9,
            rct_noise_ohm=25.0,
        )

    def test_rct_shift_monotone(self, sensor):
        shifts = [sensor.rct_shift_ohm(c) for c in (0.0, 1e-10, 1e-9, 1e-8)]
        assert all(a < b for a, b in zip(shifts, shifts[1:]))

    def test_zero_antigen_zero_shift(self, sensor):
        assert sensor.rct_shift_ohm(0.0) == 0.0

    def test_half_occupancy_at_kd(self, sensor):
        assert sensor.occupancy(1e-9) == pytest.approx(0.5)

    def test_lod_produces_three_sigma_shift(self, sensor):
        lod = sensor.limit_of_detection_molar()
        assert sensor.rct_shift_ohm(lod) == pytest.approx(
            3 * sensor.rct_noise_ohm, rel=1e-6)

    def test_spectrum_semicircle_grows(self, sensor):
        __, z_blank = sensor.circuit_at(0.0).spectrum(0.1, 1e5, 50)
        __, z_bound = sensor.circuit_at(1e-8).spectrum(0.1, 1e5, 50)
        assert (-z_bound.imag).max() > (-z_blank.imag).max()

    def test_blocking_never_complete(self, sensor):
        circuit = sensor.circuit_at(1e-3)  # saturating antigen
        assert math.isfinite(circuit.charge_transfer_resistance_ohm)
