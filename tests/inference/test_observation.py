"""Tests for repro.inference.observation (consistency-by-construction)."""

import numpy as np
import pytest

from dataclasses import replace

from repro.engine.monitor import (
    MonitorPlan,
    glucose_cohort,
    reading_noise_sigma_a,
    run_monitor,
)
from repro.inference.observation import (
    monitor_observation_model,
    observation_variance_a2,
    quantization_sigma_a,
    rail_censor_level_a,
    rail_censored_mask,
    response_linearization,
)


@pytest.fixture(scope="module")
def plan():
    return MonitorPlan(channels=glucose_cohort(3), duration_h=12.0,
                       seed=11)


@pytest.fixture(scope="module")
def model(plan):
    return monitor_observation_model(plan)


class TestNoiseModel:
    def test_quantization_floor_positive(self, plan):
        sensor = plan.channels[0].sensor
        quant = quantization_sigma_a(sensor)
        assert quant > 0
        expected = (sensor.chain.adc.lsb_v / np.sqrt(12.0)
                    / sensor.chain.tia.gain_v_per_a)
        assert quant == pytest.approx(expected)

    def test_variance_combines_chain_and_quantization(self, plan):
        sensor = plan.channels[0].sensor
        full = observation_variance_a2(sensor, add_noise=True)
        quiet = observation_variance_a2(sensor, add_noise=False)
        assert quiet == pytest.approx(quantization_sigma_a(sensor) ** 2)
        assert full == pytest.approx(
            reading_noise_sigma_a(sensor) ** 2 + quiet)
        assert full > quiet


class TestResponseSlope:
    def test_matches_analytic_michaelis_menten_derivative(self, plan):
        sensor = plan.channels[0].sensor
        km = sensor.layer.apparent_km
        slope0 = sensor.expected_slope_a_per_molar()
        c = np.array([0.0, 0.5 * km, km, 5.0 * km])
        numeric = response_linearization(sensor, c)[1]
        analytic = slope0 * (km / (km + c)) ** 2
        np.testing.assert_allclose(numeric, analytic, rtol=1e-4)

    def test_rejects_negative_points(self, plan):
        with pytest.raises(ValueError, match=">= 0"):
            response_linearization(plan.channels[0].sensor,
                                   np.array([-1e-3]))[1]


class TestModelConsistency:
    """The subsystem's core claim: the model is the simulator's physics."""

    def test_shapes(self, plan, model):
        assert model.n_channels == plan.n_channels
        assert model.n_samples == plan.n_samples
        assert model.mean_molar.shape == (plan.n_channels, plan.n_samples)
        assert model.gain_a_per_molar.shape == model.mean_molar.shape

    def test_noiseless_offset_matches_simulated_current(self, plan):
        """With every stochastic term off, the simulator's digitized
        reading at the trajectory mean must equal the model's offset up
        to (rail clipping and) one quantization step."""
        quiet = replace(plan, add_noise=False)
        result = run_monitor(quiet)
        model = monitor_observation_model(quiet)
        censored = rail_censored_mask(
            [c.sensor for c in quiet.channels], result.measured_current_a)
        # Some channels of this cohort sit above the rail for their
        # whole trajectory (that is what censoring exists for) — the
        # consistency claim applies to every un-censored reading.
        assert np.any(~censored)
        for i, channel in enumerate(quiet.channels):
            open_sky = ~censored[i]
            if not np.any(open_sky):
                continue
            lsb_i = (channel.sensor.chain.adc.lsb_v
                     / channel.sensor.chain.tia.gain_v_per_a)
            np.testing.assert_allclose(
                result.measured_current_a[i, open_sky],
                model.offset_a[i, open_sky], rtol=0.0, atol=lsb_i)

    def test_ou_parameters_match_the_trajectory(self, plan, model):
        dt = plan.sample_period_s
        for i, channel in enumerate(plan.channels):
            a_c = np.exp(-dt / (channel.trajectory.noise_tau_h * 3600.0))
            assert model.a_signal[i] == pytest.approx(a_c)
            assert model.q_signal[i] == pytest.approx(
                channel.trajectory.noise_sigma_molar ** 2
                * (1.0 - a_c ** 2))
            a_w = np.exp(-dt / (channel.wander_tau_h * 3600.0))
            assert model.a_wander[i] == pytest.approx(a_w)

    def test_noise_off_zeroes_process_terms(self, plan):
        quiet = monitor_observation_model(replace(plan, add_noise=False))
        np.testing.assert_array_equal(quiet.q_signal, 0.0)
        np.testing.assert_array_equal(quiet.q_wander, 0.0)

    def test_gain_decays_with_retention(self, model):
        """Mean trajectories are near-periodic, so the drift retention
        must dominate the gain's long-term trend downward."""
        day_apart = model.gain_a_per_molar[:, 0] \
            / model.gain_a_per_molar[:, -1]
        assert np.all(day_apart > 1.0)

    def test_wander_stationary_variance(self, plan, model):
        sigma = np.array([c.wander_sigma_a for c in plan.channels])
        np.testing.assert_allclose(
            model.wander_stationary_variance_a2(), sigma ** 2, rtol=1e-9)


class TestRailCensoring:
    def test_rail_pinned_readings_flagged(self, plan):
        result = run_monitor(plan)
        sensors = [c.sensor for c in plan.channels]
        mask = rail_censored_mask(sensors, result.measured_current_a)
        chain = sensors[0].chain
        rail_i = chain.tia.rail_v / chain.tia.gain_v_per_a
        # Everything the mask calls open must sit clearly below rail.
        assert np.all(result.measured_current_a[~mask] < rail_i)
        # This glucose cohort genuinely rails part of the time — the
        # scenario the censoring exists for.
        assert np.any(mask)
        assert not np.all(mask)

    def test_threshold_is_the_shared_level(self, plan):
        """The mask censors exactly from ``rail_censor_level_a`` on —
        the one threshold the therapy trough filter uses too."""
        sensor = plan.channels[0].sensor
        level = rail_censor_level_a(sensor)
        below = np.nextafter(level, 0.0)
        mask = rail_censored_mask(
            [sensor], np.array([[level, -level, below, -below]]))
        np.testing.assert_array_equal(mask, [[True, True, False, False]])

    def test_shape_mismatch_rejected(self, plan):
        with pytest.raises(ValueError, match="measured block"):
            rail_censored_mask([plan.channels[0].sensor],
                               np.zeros((2, 4)))
