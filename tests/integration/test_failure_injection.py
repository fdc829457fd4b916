"""Failure-injection tests: the pipeline under abnormal conditions.

A production-quality sensing stack must degrade loudly, not silently.
These tests push the simulator into saturation, interference, crosstalk
and drift conditions and check the system either stays correct or fails
with a diagnosis.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.bio.matrix import BUFFER, SERUM
from repro.core.calibration import (
    CalibrationError,
    default_protocol_for_range,
    run_calibration,
)
from repro.core.detection import measure_amperometric_point
from repro.core.longterm import DriftBudget
from repro.enzymes.stability import EnzymeStability
from repro.instrument.chain import AcquisitionChain
from repro.instrument.multiplexer import ChannelMultiplexer


class TestTiaSaturation:
    def test_undersized_front_end_clips_calibration(self, glucose_sensor):
        """A chain sized for a tenth of the signal rails out; the
        calibration must fail its linearity/quality gates rather than
        return a plausible-looking slope."""
        tiny_chain = AcquisitionChain.for_full_scale(
            full_scale_current_a=glucose_sensor.steady_state_current(1e-3)
            / 10.0,
            adc_rate_hz=10.0,
            white_noise_a_rthz=1e-14)
        clipped = replace(glucose_sensor, chain=tiny_chain)
        protocol = default_protocol_for_range(1e-3)
        with pytest.raises(CalibrationError):
            run_calibration(clipped, protocol, np.random.default_rng(3))

    def test_saturation_flag_available_upfront(self, glucose_sensor):
        """The TIA exposes saturation before any measurement is wasted."""
        peak = glucose_sensor.steady_state_current(1.6e-3)
        assert not glucose_sensor.chain.tia.saturates(peak)


class TestInterference:
    def test_serum_biases_unprotected_reading(self, glucose_sensor):
        """At +650 mV serum interferents add anodic current; without the
        Nafion film the blank shifts visibly."""
        interference = SERUM.interference_current_a(
            glucose_sensor.area_m2, 0.65, nafion_film=False)
        biased = replace(glucose_sensor,
                         background_current_a=interference)
        clean_blank = measure_amperometric_point(glucose_sensor, 0.0,
                                                 add_noise=False)
        dirty_blank = measure_amperometric_point(biased, 0.0,
                                                 add_noise=False)
        assert dirty_blank > clean_blank + 5 * glucose_sensor.repeatability_std_a

    def test_nafion_film_suppresses_most_interference(self, glucose_sensor):
        unprotected = SERUM.interference_current_a(
            glucose_sensor.area_m2, 0.65, nafion_film=False)
        protected = SERUM.interference_current_a(
            glucose_sensor.area_m2, 0.65, nafion_film=True)
        assert protected < 0.3 * unprotected

    def test_buffer_is_interference_free(self, glucose_sensor):
        assert BUFFER.interference_current_a(
            glucose_sensor.area_m2, 0.65) == 0.0

    def test_interference_shifts_intercept_not_slope(self, glucose_sensor):
        """Constant interference moves the calibration intercept; the
        slope (and thus the sensitivity) survives."""
        interference = SERUM.interference_current_a(
            glucose_sensor.area_m2, 0.65, nafion_film=True)
        biased = replace(glucose_sensor,
                         background_current_a=interference)
        protocol = default_protocol_for_range(1e-3)
        clean = run_calibration(glucose_sensor, protocol,
                                np.random.default_rng(9))
        dirty = run_calibration(biased, protocol, np.random.default_rng(9))
        assert dirty.intercept_a > clean.intercept_a
        assert dirty.sensitivity_paper == pytest.approx(
            clean.sensitivity_paper, rel=0.02)


class TestCrosstalk:
    def test_blank_channel_next_to_saturated_neighbour(self):
        """Multiplexed blanks next to a strong channel read non-zero; the
        error metric flags it as unbounded."""
        mux = ChannelMultiplexer(off_isolation=1e-3)
        currents = {0: 0.0, 1: 2e-6}
        observed = mux.observed_current(0, currents)
        assert observed > 0
        assert mux.crosstalk_error(0, currents) == float("inf")

    def test_good_isolation_keeps_panel_accurate(self):
        mux = ChannelMultiplexer(off_isolation=1e-5)
        currents = {ch: 1e-7 * (ch + 1) for ch in range(5)}
        for channel in range(5):
            assert mux.crosstalk_error(channel, currents) < 1e-3


class TestDriftFailure:
    def test_uncorrected_drift_biases_estimate(self):
        budget = DriftBudget(
            stability=EnzymeStability(half_life_s=7 * 24 * 3600.0),
            matrix=SERUM)
        retention = budget.sensitivity_retention(72.0)
        slope, true_c = 1.4e-4, 0.5e-3
        signal = slope * retention * true_c
        naive = signal / slope
        assert naive < 0.9 * true_c  # silent under-read

    def test_recalibration_deadline_before_failure(self):
        budget = DriftBudget(
            stability=EnzymeStability(half_life_s=7 * 24 * 3600.0),
            matrix=SERUM)
        deadline = budget.hours_to_error(0.1)
        # At the deadline the bias is exactly at the limit, not beyond.
        assert budget.sensitivity_retention(deadline) \
            == pytest.approx(0.9, rel=1e-2)


class TestDeadSensor:
    def test_zero_coverage_sensor_rejected_loudly(self, glucose_sensor):
        dead_layer = replace(glucose_sensor.layer, coverage_mol_m2=1e-30)
        dead = replace(glucose_sensor, layer=dead_layer,
                       repeatability_std_a=1e-9)
        protocol = default_protocol_for_range(1e-3)
        failures = 0
        for seed in range(5):
            try:
                run_calibration(dead, protocol, np.random.default_rng(seed))
            except CalibrationError:
                failures += 1
        assert failures == 5
