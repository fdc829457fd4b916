"""Tests for repro.techniques.cyclic_voltammetry.

Includes the key solver validation: the simulated reversible peak current
must match the Randles-Sevcik law.
"""

import numpy as np
import pytest

from repro.chem.doublelayer import DoubleLayer
from repro.chem.randles_sevcik import (
    peak_current_reversible,
    peak_separation_reversible,
)
from repro.chem.species import CYP_HEME, FERRICYANIDE
from repro.enzymes.catalog import CYP2B6
from repro.enzymes.immobilization import ImmobilizedLayer
from repro.techniques.cyclic_voltammetry import CyclicVoltammetry

AREA = 7e-6  # 7 mm^2 glassy-carbon disk


@pytest.fixture(scope="module")
def ferri_cv():
    """One reversible ferricyanide voltammogram, reused across tests."""
    cv = CyclicVoltammetry(e_start_v=0.6, e_vertex_v=-0.2,
                           scan_rate_v_s=0.05, sampling_rate_hz=400.0)
    record = cv.simulate_solution_couple(
        FERRICYANIDE.with_rate_enhancement(50.0),  # fast kinetics
        bulk_ox_molar=1e-3, bulk_red_molar=0.0, area_m2=AREA)
    return record


class TestSolutionCouple(object):
    def test_cathodic_peak_matches_randles_sevcik(self, ferri_cv):
        n = ferri_cv.time_s.size
        forward = ferri_cv.current_a[: n // 2]
        simulated_peak = abs(forward.min())
        analytic = peak_current_reversible(
            1, AREA, FERRICYANIDE.diffusion_ox, 1e-3, 0.05)
        assert simulated_peak == pytest.approx(analytic, rel=0.05)

    def test_reverse_anodic_peak_present(self, ferri_cv):
        n = ferri_cv.time_s.size
        backward = ferri_cv.current_a[n // 2:]
        assert backward.max() > 0

    def test_peak_separation_near_57mv(self, ferri_cv):
        n = ferri_cv.time_s.size
        fwd_idx = int(np.argmin(ferri_cv.current_a[: n // 2]))
        bwd_idx = n // 2 + int(np.argmax(ferri_cv.current_a[n // 2:]))
        separation = abs(ferri_cv.potential_v[bwd_idx]
                         - ferri_cv.potential_v[fwd_idx])
        assert separation == pytest.approx(
            peak_separation_reversible(1), abs=0.02)

    def test_peak_scales_with_sqrt_scan_rate(self):
        def peak_at(rate: float) -> float:
            cv = CyclicVoltammetry(0.6, -0.2, rate, sampling_rate_hz=400.0)
            record = cv.simulate_solution_couple(
                FERRICYANIDE.with_rate_enhancement(50.0), 1e-3, 0.0, AREA)
            half = record.current_a[: record.time_s.size // 2]
            return abs(half.min())

        ratio = peak_at(0.2) / peak_at(0.05)
        assert ratio == pytest.approx(2.0, rel=0.08)

    def test_capacitive_background_adds_envelope(self):
        cv = CyclicVoltammetry(0.6, -0.2, 0.05, sampling_rate_hz=400.0)
        layer = DoubleLayer(capacitance_per_area=2.0, series_resistance=50.0)
        with_dl = cv.simulate_solution_couple(
            FERRICYANIDE, 0.0, 0.0, AREA, double_layer=layer)
        # With no redox species, current is purely capacitive: opposite
        # signs on the two sweep directions.
        n = with_dl.time_s.size
        assert with_dl.current_a[n // 4] < 0  # cathodic-going sweep
        assert with_dl.current_a[3 * n // 4] > 0


class TestCatalyticCyp:
    def make_layer(self) -> ImmobilizedLayer:
        return ImmobilizedLayer(
            enzyme=CYP2B6, coverage_mol_m2=1e-7, activity_retention=0.5,
            km_app_molar=630e-6, collection_efficiency=0.9)

    def test_catalytic_current_grows_with_drug(self):
        cv = CyclicVoltammetry(0.1, -0.8, 0.1, sampling_rate_hz=200.0)
        layer = self.make_layer()
        blank = cv.simulate_catalytic_cyp(layer, CYP_HEME, 0.0, AREA)
        dosed = cv.simulate_catalytic_cyp(layer, CYP_HEME, 50e-6, AREA)
        assert dosed.current_a.min() < blank.current_a.min()

    def test_michaelis_menten_saturation(self):
        cv = CyclicVoltammetry(0.1, -0.8, 0.1, sampling_rate_hz=200.0)
        layer = self.make_layer()
        plateau_low = cv.simulate_catalytic_cyp(
            layer, CYP_HEME, 50e-6, AREA).metadata["catalytic_plateau_a"]
        plateau_high = cv.simulate_catalytic_cyp(
            layer, CYP_HEME, 50e-3, AREA).metadata["catalytic_plateau_a"]
        # 100x the Km barely doubles what 50 uM produces at Km/12 scale.
        assert plateau_high < 20 * plateau_low

    def test_interference_bell_adds_current(self):
        cv = CyclicVoltammetry(0.1, -0.8, 0.1, sampling_rate_hz=200.0)
        layer = self.make_layer()
        clean = cv.simulate_catalytic_cyp(layer, CYP_HEME, 0.0, AREA)
        perturbed = cv.simulate_catalytic_cyp(
            layer, CYP_HEME, 0.0, AREA, interference_bell_a=-1e-7)
        assert perturbed.current_a.min() < clean.current_a.min()

    def test_rejects_negative_substrate(self):
        cv = CyclicVoltammetry(0.1, -0.8, 0.1)
        with pytest.raises(ValueError):
            cv.simulate_catalytic_cyp(self.make_layer(), CYP_HEME, -1e-6, AREA)

    def test_rejects_bad_peak_weight(self):
        cv = CyclicVoltammetry(0.1, -0.8, 0.1)
        with pytest.raises(ValueError, match="peak weight"):
            cv.simulate_catalytic_cyp(self.make_layer(), CYP_HEME, 1e-6,
                                      AREA, peak_weight=1.5)
