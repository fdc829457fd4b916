"""Tests for repro.analytes."""

import numpy as np
import pytest

from repro.analytes.catalog import (
    ALL_ANALYTES,
    AnalyteClass,
    CYCLOPHOSPHAMIDE,
    FTORAFUR,
    GLUCOSE,
    IFOSFAMIDE,
    analyte_by_name,
)
from repro.analytes.physiological import (
    ConcentrationTrajectory,
    covers_physiological_range,
    physiological_range,
)


class TestCatalog:
    def test_seven_platform_analytes(self):
        assert len(ALL_ANALYTES) == 7

    def test_three_drugs(self):
        drugs = [a for a in ALL_ANALYTES
                 if a.analyte_class is AnalyteClass.DRUG]
        assert {a.name for a in drugs} == {
            "cyclophosphamide", "ifosfamide", "ftorafur"}

    def test_cp_and_ifosfamide_are_isomers(self):
        assert CYCLOPHOSPHAMIDE.molecular_weight_g_mol \
            == pytest.approx(IFOSFAMIDE.molecular_weight_g_mol)

    def test_lookup(self):
        assert analyte_by_name("glucose") is GLUCOSE
        with pytest.raises(KeyError, match="available"):
            analyte_by_name("caffeine")

    def test_diffusion_coefficients_physical(self):
        for analyte in ALL_ANALYTES:
            assert 1e-10 < analyte.diffusion_m2_s < 1e-8


class TestPhysiologicalRanges:
    def test_span(self):
        window = physiological_range("glucose")
        assert window.span_molar == pytest.approx(7e-3)

    def test_unknown_analyte(self):
        with pytest.raises(KeyError, match="available"):
            physiological_range("vibranium")


class TestCoverageClaims:
    """Section 3.2.2/3.2.3 narratives about range fit."""

    def test_goran_lactate_range_misses_physiology(self):
        # [16]: 0.014-0.325 mM "cannot fit with physiological lactate".
        assert not covers_physiological_range("lactate", 0.014e-3, 0.325e-3)

    def test_this_work_lactate_range_fits(self):
        # This work: 0-1 mM covers resting blood lactate (0.5-2 clipped
        # at 1... the cell-culture window is the stated use case).
        assert covers_physiological_range("cell-culture lactate",
                                          0.0, 1.0e-3)

    def test_this_work_glutamate_range_fits_culture(self):
        # 0-2 mM wide range "useful for ... cell culture monitoring".
        assert covers_physiological_range("glutamate", 0.0, 2.0e-3)

    def test_pan_glutamate_range_too_narrow(self):
        # [33]: 1-13 uM window misses most of the brain-tissue range.
        assert not covers_physiological_range("glutamate", 1e-6, 13e-6)

    def test_drug_windows_within_sensor_ranges(self):
        # The CYP sensors' ranges cover the therapeutic windows.
        assert covers_physiological_range("cyclophosphamide", 0.0, 70e-6)
        assert covers_physiological_range("ifosfamide", 0.0, 140e-6)
        assert covers_physiological_range("ftorafur", 0.0, 8e-6)

    def test_ftorafur_exists(self):
        assert FTORAFUR.analyte_class is AnalyteClass.DRUG

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            covers_physiological_range("glucose", 1e-3, 1e-3)


class TestConcentrationTrajectory:
    def test_constant_without_components(self):
        trajectory = ConcentrationTrajectory(baseline_molar=1e-3)
        hours = np.linspace(0.0, 48.0, 97)
        np.testing.assert_allclose(trajectory.mean_molar(hours), 1e-3)

    def test_scalar_and_array_agree(self):
        trajectory = ConcentrationTrajectory.for_analyte("glucose")
        hours = np.array([0.0, 5.5, 23.9, 100.0])
        array = trajectory.mean_molar(hours)
        for i, h in enumerate(hours):
            assert array[i] == pytest.approx(
                trajectory.mean_molar(float(h)), rel=1e-12)

    def test_circadian_period(self):
        trajectory = ConcentrationTrajectory(
            baseline_molar=1e-3, circadian_amplitude_molar=2e-4)
        assert trajectory.mean_molar(30.0) == pytest.approx(
            trajectory.mean_molar(6.0), rel=1e-12)

    def test_excursions_decay_between_events(self):
        trajectory = ConcentrationTrajectory(
            baseline_molar=1e-3,
            excursion_amplitude_molar=5e-4,
            excursion_interval_h=6.0,
            excursion_tau_h=1.0)
        just_after = trajectory.mean_molar(6.01)
        just_before = trajectory.mean_molar(5.99)
        assert just_after > just_before

    def test_floor_clamps(self):
        trajectory = ConcentrationTrajectory(
            baseline_molar=1e-4,
            circadian_amplitude_molar=5e-4,
            floor_molar=5e-5)
        hours = np.linspace(0.0, 24.0, 241)
        assert float(np.min(trajectory.mean_molar(hours))) \
            == pytest.approx(5e-5)

    def test_for_analyte_stays_clinically_plausible(self):
        for analyte in ("glucose", "lactate", "cyclophosphamide"):
            window = physiological_range(analyte)
            trajectory = ConcentrationTrajectory.for_analyte(analyte)
            hours = np.linspace(0.0, 72.0, 432)
            mean = trajectory.mean_molar(hours)
            assert float(np.min(mean)) > 0.0
            assert float(np.max(mean)) < 2.0 * window.high_molar

    def test_rejects_negative_time(self):
        trajectory = ConcentrationTrajectory(baseline_molar=1e-3)
        with pytest.raises(ValueError):
            trajectory.mean_molar(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConcentrationTrajectory(baseline_molar=0.0)
        with pytest.raises(ValueError):
            ConcentrationTrajectory(baseline_molar=1e-3,
                                    noise_sigma_molar=-1.0)
        with pytest.raises(ValueError):
            ConcentrationTrajectory(baseline_molar=1e-3,
                                    excursion_tau_h=0.0)
