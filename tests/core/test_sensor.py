"""Tests for repro.core.sensor."""

import pytest

from repro.core.sensor import ReadoutMode
from repro.units import sensitivity_paper_from_slope


class TestComposition:
    def test_glucose_sensor_composition(self, glucose_sensor):
        assert glucose_sensor.analyte.name == "glucose"
        assert glucose_sensor.layer.enzyme.abbreviation == "GOD"
        assert glucose_sensor.readout is ReadoutMode.AMPEROMETRIC_STEADY_STATE
        assert glucose_sensor.film.has_nanotubes

    def test_cp_sensor_composition(self, cp_sensor):
        assert cp_sensor.analyte.name == "cyclophosphamide"
        assert cp_sensor.layer.enzyme.abbreviation == "CYP2B6"
        assert cp_sensor.readout is ReadoutMode.VOLTAMMETRIC_PEAK

    def test_glucose_on_microchip_area(self, glucose_sensor):
        assert glucose_sensor.area_m2 == pytest.approx(2.5e-7)

    def test_cp_on_spe_area(self, cp_sensor):
        assert cp_sensor.area_m2 == pytest.approx(1.3e-5)

    def test_describe_mentions_composition(self, glucose_sensor):
        text = glucose_sensor.describe()
        assert "glucose" in text
        assert "MWCNT" in text


class TestResponseModel:
    def test_steady_state_monotonic(self, glucose_sensor):
        i1 = glucose_sensor.steady_state_current(0.1e-3)
        i2 = glucose_sensor.steady_state_current(0.5e-3)
        assert i2 > i1

    def test_expected_sensitivity_near_paper_value(self, glucose_sensor):
        # Gain trim targets the *regression* slope over the linear range;
        # the analytic initial slope therefore sits ~10 % above 55.5
        # (Michaelis-Menten curvature biases range-wide regressions low).
        assert sensitivity_paper_from_slope(
            glucose_sensor.expected_slope_a_per_molar(),
            glucose_sensor.area_m2) == pytest.approx(55.5, rel=0.17)

    def test_linear_range_upper_from_km(self, glucose_sensor):
        assert glucose_sensor.linear_range_upper_molar(0.1) \
            == pytest.approx(1e-3, rel=0.02)

    def test_expected_lod_near_paper(self, glucose_sensor):
        assert glucose_sensor.expected_lod_molar() \
            == pytest.approx(2e-6, rel=0.3)

    def test_double_layer_includes_film_enhancement(self, glucose_sensor):
        enhanced = glucose_sensor.double_layer().capacitance_per_area
        bare = glucose_sensor.cell.bare_double_layer().capacitance_per_area
        assert enhanced == pytest.approx(
            bare * glucose_sensor.film.capacitance_enhancement())

    def test_detected_couple_is_h2o2_for_oxidase(self, glucose_sensor):
        assert glucose_sensor.detected_couple().name == "hydrogen_peroxide"

    def test_detected_couple_is_heme_for_cyp(self, cp_sensor):
        assert cp_sensor.detected_couple().name == "cyp_heme"

    def test_film_boosts_detected_couple_kinetics(self, glucose_sensor):
        from repro.chem.species import HYDROGEN_PEROXIDE
        assert glucose_sensor.detected_couple().k0 > HYDROGEN_PEROXIDE.k0
