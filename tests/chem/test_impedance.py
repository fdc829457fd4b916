"""Tests for repro.chem.impedance (section 2.3 impedimetric class)."""

import numpy as np
import pytest

from repro.chem.impedance import RandlesCircuit, binding_rct_shift


@pytest.fixture()
def circuit():
    return RandlesCircuit(
        solution_resistance_ohm=100.0,
        charge_transfer_resistance_ohm=10_000.0,
        double_layer_capacitance_f=1e-6,
    )


class TestSpectrum:
    def test_high_frequency_limit_is_rs(self, circuit):
        z = circuit.impedance(1e7)
        assert z.real == pytest.approx(100.0, rel=1e-2)
        assert abs(z.imag) < 50.0

    def test_low_frequency_limit_is_rs_plus_rct(self, circuit):
        z = circuit.impedance(1e-4)
        assert z.real == pytest.approx(10_100.0, rel=1e-3)

    def test_nyquist_semicircle_apex(self, circuit):
        f_apex = 1.0 / (2.0 * np.pi * 10_000.0 * 1e-6)  # 1 / (2 pi Rct Cdl)
        z = circuit.impedance(f_apex)
        # At the apex, -Im(Z) = Rct/2 and Re(Z) = Rs + Rct/2.
        assert -z.imag == pytest.approx(5000.0, rel=1e-2)
        assert z.real == pytest.approx(100.0 + 5000.0, rel=1e-2)

    def test_spectrum_shapes(self, circuit):
        freqs, z = circuit.spectrum(0.1, 1e5, 40)
        assert freqs.shape == z.shape == (40,)
        assert np.all(-z.imag >= -1e-9)  # capacitive quadrant

    def test_warburg_tail_at_low_frequency(self):
        with_warburg = RandlesCircuit(100.0, 10_000.0, 1e-6,
                                      warburg_sigma_ohm_rts=500.0)
        without = RandlesCircuit(100.0, 10_000.0, 1e-6)
        z_w = with_warburg.impedance(0.01)
        z_0 = without.impedance(0.01)
        assert z_w.real > z_0.real
        assert -z_w.imag > -z_0.imag

    def test_rejects_non_positive_frequency(self, circuit):
        with pytest.raises(ValueError):
            circuit.impedance(0.0)


class TestBindingResponses:
    def test_faradic_sensor_rct_grows_with_binding(self, circuit):
        bound = binding_rct_shift(circuit, surface_occupancy=0.5)
        assert bound.charge_transfer_resistance_ohm \
            > circuit.charge_transfer_resistance_ohm

    def test_faradic_response_monotonic(self, circuit):
        values = [binding_rct_shift(circuit, t).charge_transfer_resistance_ohm
                  for t in (0.0, 0.25, 0.5, 0.75)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_occupancy_identity(self, circuit):
        same = binding_rct_shift(circuit, 0.0)
        assert same.charge_transfer_resistance_ohm \
            == circuit.charge_transfer_resistance_ohm

    def test_rejects_bad_occupancy(self, circuit):
        with pytest.raises(ValueError):
            binding_rct_shift(circuit, 1.5)
