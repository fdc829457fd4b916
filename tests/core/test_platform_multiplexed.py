"""Tests for the multiplexed (shared-readout) platform mode."""

import numpy as np
import pytest

from repro.core.platform import reference_metabolite_platform
from repro.instrument.multiplexer import ChannelMultiplexer
from repro.units import molar_from_millimolar


def calibrated_platform(multiplexer=None):
    platform = reference_metabolite_platform()
    platform.multiplexer = multiplexer
    uppers = {0: molar_from_millimolar(1.0),
              1: molar_from_millimolar(1.0),
              2: molar_from_millimolar(2.0)}
    platform.calibrate_batch(seed=21, upper_molar_by_channel=uppers)
    return platform


class TestMultiplexedPanel:
    def test_good_isolation_preserves_estimates(self):
        clean = calibrated_platform(None)
        muxed = calibrated_platform(ChannelMultiplexer(off_isolation=1e-6))
        truth = {"glucose": 0.5e-3, "lactate": 0.4e-3, "glutamate": 0.8e-3}
        clean_est = clean.measure_sample(truth, np.random.default_rng(4))
        muxed_est = muxed.measure_sample(truth, np.random.default_rng(4))
        for analyte in truth:
            assert muxed_est[analyte] == pytest.approx(clean_est[analyte],
                                                       rel=0.02)

    def test_poor_isolation_biases_weak_channel(self):
        """A glutamate channel (tiny currents) next to a strong glucose
        channel picks up leakage when isolation is poor."""
        muxed = calibrated_platform(ChannelMultiplexer(off_isolation=5e-2))
        truth = {"glucose": 0.9e-3, "lactate": 0.9e-3, "glutamate": 0.0}
        estimates = muxed.measure_sample(truth, np.random.default_rng(4))
        # The blank glutamate channel reads a phantom concentration.
        assert estimates["glutamate"] > 50e-6
