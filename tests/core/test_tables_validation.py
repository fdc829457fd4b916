"""Tests for repro.core.tables and repro.core.validation."""

import pytest

from repro.core.registry import TABLE1_SPECS
from repro.core.tables import render_table1, table1_rows
from repro.core.validation import ranking_matches, within_factor


class TestTable1:
    def test_seven_rows(self):
        assert len(table1_rows(TABLE1_SPECS)) == 7

    def test_glucose_row(self):
        rows = table1_rows(TABLE1_SPECS)
        assert ("GLUCOSE", "GOD", "Chronoamperometry") in rows

    def test_cp_row_uses_cv(self):
        rows = table1_rows(TABLE1_SPECS)
        assert ("CYCLOPHOSPHAMIDE", "CYP2B6", "Cyclic voltammetry") in rows

    def test_render_contains_header(self):
        text = render_table1(TABLE1_SPECS)
        assert "Table 1" in text
        assert "Technique" in text


class TestValidationHelpers:
    def test_within_factor(self):
        assert within_factor(55.0, 55.5, 1.5)
        assert within_factor(30.0, 55.5, 2.0)
        assert not within_factor(10.0, 55.5, 2.0)

    def test_within_factor_symmetric(self):
        assert within_factor(2.0, 1.0, 2.0)
        assert within_factor(0.5, 1.0, 2.0)

    def test_within_factor_validates(self):
        with pytest.raises(ValueError):
            within_factor(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            within_factor(1.0, 1.0, 0.5)

    def test_ranking_matches(self):
        values = {"aa": 1140.0, "ft": 883.0, "ifo": 160.0, "cp": 102.0}
        assert ranking_matches(values, ["aa", "ft", "ifo", "cp"])
        assert not ranking_matches(values, ["ft", "aa", "ifo", "cp"])

    def test_ranking_requires_same_keys(self):
        with pytest.raises(ValueError):
            ranking_matches({"a": 1.0}, ["a", "b"])
