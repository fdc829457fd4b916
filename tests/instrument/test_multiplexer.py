"""Tests for repro.instrument.multiplexer."""

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

    def test_rejects_bad_channel(self, mux):
        with pytest.raises(ValueError):
            mux.observed_current(9, {0: 1e-7})


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

    def test_perfect_isolation_has_zero_error(self):
        mux = ChannelMultiplexer(off_isolation=0.0)
        assert mux.observed_current(0, {0: 1e-8, 1: 1e-4}) == 1e-8
