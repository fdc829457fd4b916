"""Tests for repro.engine.therapy (closed-loop virtual-patient dosing).

Covers the domain gates of the therapy subsystem: controller path
equivalence, the explicit zero-recalibration path for short regimens,
and the personalization claim itself — the Bayesian controller
shrinking trough error versus fixed dosing for poor and ultrarapid
metabolizer cohorts.  The execution-contract gates (chunk invariance,
scalar equivalence, deterministic replay) live in
``tests/engine/test_core_contract.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.engine.core import run_scalar
from repro.engine.therapy import TherapyPlan, run_therapy
from repro.pk import CYCLOSPORINE, CYPPhenotype, Route
from repro.pk.dosing import steady_state_trough_per_mol
from repro.therapy import (
    BayesianTroughController,
    FixedRegimenController,
    ProportionalTroughController,
    fraction_above_window,
    fraction_below_window,
    time_in_range,
)

DRUG = CYCLOSPORINE
TARGET = DRUG.window.target_trough_molar


def bayes_controller(**overrides):
    settings = dict(prior=DRUG.typical_model(),
                    target_trough_molar=TARGET,
                    observation_sigma_molar=4e-7)
    settings.update(overrides)
    return BayesianTroughController(**settings)


def typical_dose_mol() -> float:
    """The dose landing the population-typical patient on target."""
    per_mol = float(steady_state_trough_per_mol(
        DRUG.typical_model().params(), 12.0)[0])
    return TARGET / per_mol


@pytest.fixture(scope="module")
def cohort():
    return DRUG.population.sample(6, seed=17)


def short_plan(cohort, **overrides) -> TherapyPlan:
    settings = dict(controller=bayes_controller(), n_doses=4,
                    dose_interval_h=12.0, sample_period_s=1800.0,
                    seed=29, process_noise_sigma_molar=1e-7,
                    wander_sigma_a=2e-9)
    settings.update(overrides)
    return TherapyPlan.for_drug(DRUG, cohort, **settings)


class TestPlanValidation:
    def test_misaligned_dose_grid_rejected(self, cohort):
        with pytest.raises(ValueError):
            short_plan(cohort, dose_interval_h=12.1)

    def test_infusion_needs_duration(self, cohort):
        with pytest.raises(ValueError):
            short_plan(cohort, route=Route.INFUSION)

    def test_duration_only_for_infusions(self, cohort):
        with pytest.raises(ValueError):
            short_plan(cohort, infusion_duration_h=2.0)

    def test_n_doses_positive(self, cohort):
        with pytest.raises(ValueError):
            short_plan(cohort, n_doses=0)

    def test_grid_properties(self, cohort):
        plan = short_plan(cohort)
        assert plan.samples_per_interval == 24
        assert plan.n_samples == 96
        assert plan.duration_h == 48.0
        np.testing.assert_array_equal(
            plan.dose_times_h, [0.0, 12.0, 24.0, 36.0])

    def test_for_drug_wires_sensor_and_window(self, cohort):
        plan = short_plan(cohort)
        assert plan.window == DRUG.window
        assert plan.sensor.analyte.name == "ifosfamide"  # CYP3A4 electrode


class TestControllerEquivalence:
    @pytest.mark.parametrize("controller", [
        FixedRegimenController(dose_mol=8e-4),
        ProportionalTroughController(initial_dose_mol=8e-4,
                                     target_trough_molar=TARGET),
    ], ids=["fixed", "proportional"])
    def test_every_controller_is_path_equivalent(self, cohort, controller):
        plan = short_plan(cohort, controller=controller)
        batch = run_therapy(plan)
        scalar = run_scalar("therapy", plan)
        np.testing.assert_allclose(batch.doses_mol, scalar.doses_mol,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            batch.estimated_concentration_molar,
            scalar.estimated_concentration_molar, rtol=0.0, atol=1e-9)


class TestDeterminism:
    def test_same_seed_replays(self, cohort):
        a = run_therapy(short_plan(cohort))
        b = run_therapy(short_plan(cohort))
        np.testing.assert_array_equal(a.measured_current_a,
                                      b.measured_current_a)
        np.testing.assert_array_equal(a.doses_mol, b.doses_mol)

    def test_different_seed_differs(self, cohort):
        a = run_therapy(short_plan(cohort))
        b = run_therapy(short_plan(cohort, seed=30))
        assert np.any(a.measured_current_a != b.measured_current_a)


class TestZeroRecalibrationPath:
    """The satellite regression: reference schedules that cannot fire
    inside a short regimen must degrade to open loop, identically on
    both engine paths."""

    def test_short_course_never_recalibrates(self, cohort):
        plan = short_plan(cohort, n_doses=1)  # 12 h < 24 h references
        assert plan.n_reference_draws == 0
        batch = run_therapy(plan)
        scalar = run_scalar("therapy", plan)
        assert int(np.sum(batch.n_recalibrations)) == 0
        assert int(np.sum(scalar.n_recalibrations)) == 0
        np.testing.assert_allclose(
            batch.estimated_concentration_molar,
            scalar.estimated_concentration_molar, rtol=0.0, atol=1e-9)

    def test_zero_recal_equals_disabled_policy(self, cohort):
        from repro.engine.monitor import RecalibrationPolicy

        never = run_therapy(short_plan(cohort, n_doses=1))
        disabled = run_therapy(short_plan(
            cohort, n_doses=1,
            recalibration=RecalibrationPolicy(enabled=False)))
        np.testing.assert_array_equal(
            never.estimated_concentration_molar,
            disabled.estimated_concentration_molar)

    def test_long_course_does_recalibrate(self, cohort):
        plan = short_plan(cohort, n_doses=6)  # 72 h, daily references
        assert plan.n_reference_draws == 3
        result = run_therapy(plan)
        assert int(np.sum(result.n_recalibrations)) > 0


class TestClosedLoopPersonalization:
    """The acceptance claim: model-informed dosing beats fixed dosing
    where pharmacogetics bite — poor and ultrarapid metabolizers."""

    @pytest.mark.parametrize("phenotype", [CYPPhenotype.POOR,
                                           CYPPhenotype.ULTRARAPID])
    def test_bayesian_shrinks_trough_error(self, phenotype):
        stratum = DRUG.population.monomorphic(phenotype).sample(
            8, seed=41)
        fixed_dose = typical_dose_mol()
        shared = dict(n_doses=6, dose_interval_h=12.0,
                      sample_period_s=1800.0, seed=43,
                      process_noise_sigma_molar=1e-7,
                      wander_sigma_a=2e-9)
        fixed = run_therapy(TherapyPlan.for_drug(
            DRUG, stratum,
            controller=FixedRegimenController(dose_mol=fixed_dose),
            **shared))
        bayes = run_therapy(TherapyPlan.for_drug(
            DRUG, stratum, controller=bayes_controller(), **shared))
        fixed_error = float(np.mean(fixed.trough_abs_rel_error))
        bayes_error = float(np.mean(bayes.trough_abs_rel_error))
        assert bayes_error < 0.7 * fixed_error, (
            f"{phenotype.value}: Bayesian {bayes_error:.2f} vs fixed "
            f"{fixed_error:.2f}")

    def test_bayesian_cuts_poor_metabolizer_toxicity(self):
        poor = DRUG.population.monomorphic(CYPPhenotype.POOR).sample(
            8, seed=47)
        shared = dict(n_doses=6, dose_interval_h=12.0,
                      sample_period_s=1800.0, seed=49,
                      process_noise_sigma_molar=1e-7,
                      wander_sigma_a=2e-9)
        fixed = run_therapy(TherapyPlan.for_drug(
            DRUG, poor,
            controller=FixedRegimenController(
                dose_mol=typical_dose_mol()),
            **shared))
        bayes = run_therapy(TherapyPlan.for_drug(
            DRUG, poor, controller=bayes_controller(), **shared))
        assert (float(np.mean(bayes.overdose_exposure_molar_h))
                < 0.5 * float(np.mean(fixed.overdose_exposure_molar_h)))

    def test_proportional_sits_between(self, cohort):
        """Reactive titration helps but the model-informed controller
        stays at least as good on the mixed cohort."""
        shared = dict(n_doses=6, seed=53,
                      process_noise_sigma_molar=1e-7,
                      wander_sigma_a=2e-9, sample_period_s=1800.0)
        mixed = DRUG.population.sample(12, seed=51)
        fixed = run_therapy(TherapyPlan.for_drug(
            DRUG, mixed,
            controller=FixedRegimenController(
                dose_mol=typical_dose_mol()), **shared))
        proportional = run_therapy(TherapyPlan.for_drug(
            DRUG, mixed,
            controller=ProportionalTroughController(
                initial_dose_mol=typical_dose_mol(),
                target_trough_molar=TARGET), **shared))
        assert (float(np.mean(proportional.trough_abs_rel_error))
                < float(np.mean(fixed.trough_abs_rel_error)))


class TestTherapyResult:
    def test_trace_shapes(self, cohort):
        plan = short_plan(cohort)
        result = run_therapy(plan)
        shape = (plan.n_patients, plan.n_samples)
        assert result.true_concentration_molar.shape == shape
        assert result.estimated_concentration_molar.shape == shape
        assert result.measured_current_a.shape == shape
        assert result.doses_mol.shape == (plan.n_patients, plan.n_doses)
        assert result.time_h.shape == (plan.n_samples,)

    def test_keep_traces_off(self, cohort):
        result = run_therapy(short_plan(cohort, keep_traces=False))
        assert result.true_concentration_molar is None
        assert result.measured_current_a is None
        assert result.time_in_range.shape == (cohort.n_patients,)

    def test_troughs_align_with_traces(self, cohort):
        plan = short_plan(cohort)
        result = run_therapy(plan)
        spi = plan.samples_per_interval
        for k in range(plan.n_doses):
            np.testing.assert_array_equal(
                result.trough_true_molar[:, k],
                result.true_concentration_molar[:, (k + 1) * spi - 1])

    def test_window_fractions_partition(self, cohort):
        result = run_therapy(short_plan(cohort))
        np.testing.assert_allclose(
            result.time_in_range + result.fraction_below
            + result.fraction_above, 1.0)

    def test_window_fractions_match_the_trace_metrics(self, cohort):
        """The chunk-streamed window counts equal the whole-trace
        metrics of ``repro.therapy`` on the same true levels."""
        result = run_therapy(short_plan(cohort))
        levels = result.true_concentration_molar
        for streamed, metric in (
                (result.time_in_range, time_in_range),
                (result.fraction_below, fraction_below_window),
                (result.fraction_above, fraction_above_window)):
            np.testing.assert_allclose(streamed,
                                       metric(levels, DRUG.window),
                                       rtol=0.0, atol=1e-12)

    def test_summary_mentions_phenotypes(self, cohort):
        result = run_therapy(short_plan(cohort))
        text = result.summary()
        assert "in-range" in text
        present = {p.phenotype for p in cohort.patients}
        for phenotype in present:
            assert phenotype.value in text

    def test_noiseless_troughs_converge_to_target(self, cohort):
        """Physics sanity: without noise or drift the Bayesian loop
        pins later troughs close to target for every patient."""
        from repro.bio.matrix import BUFFER
        from repro.core.longterm import DriftBudget
        from repro.engine.monitor import RecalibrationPolicy
        from repro.enzymes.stability import EnzymeStability

        stable = DriftBudget(
            stability=EnzymeStability(half_life_s=1e12),
            matrix=BUFFER, temperature_k=298.15)
        plan = short_plan(
            cohort, n_doses=6, add_noise=False, budget=stable,
            controller=bayes_controller(observation_sigma_molar=1e-8),
            recalibration=RecalibrationPolicy(enabled=False))
        result = run_therapy(plan)
        final_troughs = result.trough_true_molar[:, -1]
        np.testing.assert_allclose(final_troughs, TARGET, rtol=0.15)

    def test_open_loop_plan_replaces_cleanly(self, cohort):
        plan = short_plan(cohort)
        open_loop = replace(plan, keep_traces=False)
        assert open_loop.keep_traces is False


class TestFilteredTroughs:
    """The PR-5 refactor: the controller can consume Kalman-filtered
    trough estimates (and their variances) instead of raw readouts."""

    def test_plan_knobs_validated(self, cohort):
        with pytest.raises(ValueError, match="filter process sigma"):
            short_plan(cohort, filter_troughs=True,
                       filter_process_sigma_molar=0.0)
        default = short_plan(cohort, filter_troughs=True)
        assert default.trough_filter_step_sigma_molar \
            == pytest.approx(0.05 * TARGET)
        explicit = short_plan(cohort, filter_troughs=True,
                              filter_process_sigma_molar=1e-7)
        assert explicit.trough_filter_step_sigma_molar == 1e-7

    def test_raw_plan_carries_no_variances(self, cohort):
        result = run_therapy(short_plan(cohort, keep_traces=False))
        assert result.trough_variance_molar2 is None
        assert "trough_variance_molar2" not in \
            result.to_dict()["patients"][0]

    def test_variances_shaped_and_positive(self, cohort):
        plan = short_plan(cohort, filter_troughs=True, keep_traces=False)
        result = run_therapy(plan)
        variances = result.trough_variance_molar2
        assert variances.shape == (plan.n_patients, plan.n_doses)
        assert np.all(variances > 0)
        assert "trough_variance_molar2" in \
            result.to_dict()["patients"][0]

    def test_filtered_troughs_reduce_readout_error(self, cohort):
        raw = run_therapy(short_plan(cohort, keep_traces=False))
        filtered = run_therapy(short_plan(cohort, filter_troughs=True,
                                          keep_traces=False))
        raw_err = np.abs(raw.trough_estimated_molar
                         - raw.trough_true_molar)
        filtered_err = np.abs(filtered.trough_estimated_molar
                              - filtered.trough_true_molar)
        assert float(np.mean(filtered_err)) < float(np.mean(raw_err))


class TestRailCensoredTroughs:
    """Readings pinned at the TIA rail carry no amplitude: the trough
    filter must skip them (pure prediction) on both paths."""

    @pytest.fixture(scope="class")
    def railed(self, cohort):
        sensor = TherapyPlan.for_drug(DRUG, cohort, bayes_controller(),
                                      n_doses=1).sensor
        chain = sensor.chain
        # A background far beyond the rail-referred current pins every
        # reading at the rail.
        background = 10.0 * chain.tia.rail_v / chain.tia.gain_v_per_a
        return short_plan(
            cohort, n_doses=3, filter_troughs=True,
            controller=FixedRegimenController(dose_mol=typical_dose_mol()),
            sensor=replace(sensor, background_current_a=background))

    @pytest.mark.parametrize("path", ["batch", "scalar"])
    def test_filter_applies_no_measurement_update(self, railed, path):
        result = (run_therapy(railed) if path == "batch"
                  else run_scalar("therapy", railed))
        sensor = railed.sensor
        rail_a = sensor.chain.tia.rail_v / sensor.chain.tia.gain_v_per_a
        assert np.all(result.measured_current_a >= 0.99 * rail_a)
        # No update: the drug-state mean never leaves its zero prior and
        # its variance is the random-walk prediction alone.
        np.testing.assert_array_equal(result.trough_estimated_molar, 0.0)
        steps = (np.arange(railed.n_doses) + 1) * railed.samples_per_interval
        q_signal = (railed.trough_filter_step_sigma_molar ** 2
                    + railed.process_noise_sigma_molar ** 2 * (1.0 - np.exp(
                        -2.0 * railed.sample_period_s
                        / (railed.process_noise_tau_h * 3600.0))))
        np.testing.assert_allclose(
            result.trough_variance_molar2,
            np.broadcast_to(steps * q_signal, (railed.n_patients,
                                               railed.n_doses)),
            rtol=1e-12)
