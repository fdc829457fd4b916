"""Tests for repro.instrument.multiplexer."""

import numpy as np
import pytest

from repro.instrument.multiplexer import ChannelMultiplexer


@pytest.fixture()
def mux():
    return ChannelMultiplexer()


class TestSelection:
    def test_selected_channel_passes(self, mux):
        currents = {0: 1e-7, 1: 0.0, 2: 0.0}
        assert mux.observed_current(0, currents) == pytest.approx(1e-7,
                                                                  rel=1e-3)

    def test_crosstalk_leaks_neighbours(self, mux):
        currents = {0: 0.0, 1: 1e-6}
        observed = mux.observed_current(0, currents)
        assert observed == pytest.approx(1e-6 * mux.off_isolation)

    def test_crosstalk_error_small_for_balanced_channels(self, mux):
        currents = {ch: 1e-7 for ch in range(5)}
        error = mux.crosstalk_error(2, currents)
        assert error < 1e-3

    def test_crosstalk_error_infinite_for_blank_next_to_strong(self, mux):
        currents = {0: 0.0, 1: 1e-5}
        assert mux.crosstalk_error(0, currents) == float("inf")

    def test_rejects_bad_channel(self, mux):
        with pytest.raises(ValueError):
            mux.observed_current(9, {0: 1e-7})


class TestSwitchingTransient:
    def test_charge_conserved(self, mux):
        cap = 1e-6
        tau = mux.on_resistance_ohm * cap
        t = np.linspace(0.0, 30 * tau, 50_000)
        transient = mux.switching_transient(t, cap)
        charge = np.trapezoid(transient, t)
        assert charge == pytest.approx(mux.charge_injection_c, rel=1e-3)

    def test_decays_within_settling_time(self, mux):
        cap = 1e-6
        transient = mux.switching_transient(
            np.array([mux.settling_time_s]), cap)
        assert transient[0] < 1e-15

    def test_zero_resistance_no_transient(self):
        mux = ChannelMultiplexer(on_resistance_ohm=0.0)
        transient = mux.switching_transient(np.array([0.0, 1.0]), 1e-6)
        assert np.all(transient == 0.0)


class TestScanScheduling:
    def test_full_scan_duration(self, mux):
        # 5 channels x (0.5 s settle + 10 s dwell).
        assert mux.scan_duration_s(10.0) == pytest.approx(52.5)

    def test_partial_scan(self, mux):
        assert mux.scan_duration_s(10.0, channels=[0, 3]) \
            == pytest.approx(21.0)

    def test_scan_rate_inverse_of_duration(self, mux):
        assert mux.max_scan_rate_hz(10.0) \
            == pytest.approx(1.0 / mux.scan_duration_s(10.0))

    def test_rejects_bad_dwell(self, mux):
        with pytest.raises(ValueError):
            mux.scan_duration_s(0.0)


class TestValidation:
    """Constructor guard rails (previously untested)."""

    @pytest.mark.parametrize("kwargs", [
        {"n_channels": 0},
        {"on_resistance_ohm": -1.0},
        {"charge_injection_c": -1e-12},
        {"off_isolation": -0.1},
        {"off_isolation": 1.0},
        {"settling_time_s": -0.5},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelMultiplexer(**kwargs)

    def test_negative_channel_rejected(self, mux):
        with pytest.raises(ValueError, match="channel"):
            mux.observed_current(-1, {0: 1e-7})

    def test_transient_rejects_negative_time_and_capacitance(self, mux):
        with pytest.raises(ValueError, match=">= 0"):
            mux.switching_transient(np.array([-1.0]), 1e-6)
        with pytest.raises(ValueError, match="> 0"):
            mux.switching_transient(np.array([0.0]), 0.0)


class TestCrosstalkPaths:
    """The leakage arithmetic of the multiplexed readout."""

    def test_missing_channels_default_to_zero_current(self, mux):
        # A sparse dict is legal: unlisted electrodes carry nothing.
        assert mux.observed_current(0, {}) == 0.0
        assert mux.observed_current(0, {3: 1e-6}) \
            == pytest.approx(1e-6 * mux.off_isolation)

    def test_leakage_sums_over_all_neighbours(self, mux):
        currents = {0: 1e-7, 1: 2e-7, 2: 3e-7, 3: 4e-7}
        observed = mux.observed_current(0, currents)
        assert observed == pytest.approx(
            1e-7 + (2e-7 + 3e-7 + 4e-7) * mux.off_isolation)

    def test_crosstalk_error_scales_with_imbalance(self, mux):
        balanced = mux.crosstalk_error(0, {0: 1e-7, 1: 1e-7})
        lopsided = mux.crosstalk_error(0, {0: 1e-7, 1: 1e-4})
        assert lopsided > 100 * balanced

    def test_blank_with_silent_neighbours_has_zero_error(self, mux):
        assert mux.crosstalk_error(0, {0: 0.0, 1: 0.0}) == 0.0

    def test_perfect_isolation_has_zero_error(self):
        mux = ChannelMultiplexer(off_isolation=0.0)
        assert mux.crosstalk_error(0, {0: 1e-8, 1: 1e-4}) == 0.0


class TestSettlingPaths:
    """Settling-time scheduling arithmetic (previously untested)."""

    def test_scan_duration_scales_with_settling_time(self):
        fast = ChannelMultiplexer(settling_time_s=0.1)
        slow = ChannelMultiplexer(settling_time_s=2.0)
        dwell = 5.0
        assert slow.scan_duration_s(dwell) - fast.scan_duration_s(dwell) \
            == pytest.approx(5 * (2.0 - 0.1))

    def test_zero_settling_time_is_dwell_only(self):
        mux = ChannelMultiplexer(settling_time_s=0.0)
        assert mux.scan_duration_s(10.0) == pytest.approx(50.0)

    def test_revisits_pay_settling_each_time(self, mux):
        once = mux.scan_duration_s(10.0, channels=[0])
        thrice = mux.scan_duration_s(10.0, channels=[0, 0, 0])
        assert thrice == pytest.approx(3 * once)

    def test_scan_rejects_bad_channel_in_list(self, mux):
        with pytest.raises(ValueError, match="channel"):
            mux.scan_duration_s(10.0, channels=[0, 9])

    def test_transient_settled_before_samples_count(self, mux):
        """The settling wait exists so the charge-injection transient
        has died: at settling_time_s the residual is negligible against
        a nanoamp-scale signal."""
        cap = 100e-9
        residual = mux.switching_transient(
            np.array([mux.settling_time_s]), cap)[0]
        peak = mux.switching_transient(np.array([0.0]), cap)[0]
        assert peak == pytest.approx(
            mux.charge_injection_c / (mux.on_resistance_ohm * cap))
        assert residual < 1e-12 * peak
