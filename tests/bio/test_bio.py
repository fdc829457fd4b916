"""Tests for repro.bio (matrices and interferents)."""

import numpy as np
import pytest

from repro.bio.interference import (
    ASCORBATE,
    PARACETAMOL,
    URATE,
)
from repro.bio.matrix import BUFFER, CELL_CULTURE_MEDIUM, SERUM

AREA = 2.5e-7  # microchip electrode
WORKING_POTENTIAL = 0.65


class TestInterferents:
    def test_no_current_below_onset(self):
        assert ASCORBATE.current_a(AREA, 0.1) == 0.0

    def test_current_above_onset(self):
        assert ASCORBATE.current_a(AREA, WORKING_POTENTIAL) > 0

    def test_nafion_blocks_anionic_interferents(self):
        """Ascorbate/urate rejection is a designed-in benefit of the
        paper's Nafion films."""
        bare = ASCORBATE.current_a(AREA, WORKING_POTENTIAL)
        filmed = ASCORBATE.current_a(AREA, WORKING_POTENTIAL,
                                     nafion_film=True)
        assert filmed < 0.2 * bare

    def test_nafion_barely_helps_neutral_paracetamol(self):
        bare = PARACETAMOL.current_a(AREA, WORKING_POTENTIAL)
        filmed = PARACETAMOL.current_a(AREA, WORKING_POTENTIAL,
                                       nafion_film=True)
        assert filmed > 0.5 * bare

    def test_current_linear_in_concentration(self):
        i1 = URATE.current_a(AREA, WORKING_POTENTIAL,
                             concentration_molar=1e-4)
        i2 = URATE.current_a(AREA, WORKING_POTENTIAL,
                             concentration_molar=2e-4)
        assert i2 == pytest.approx(2 * i1)

    def test_rejects_bad_area(self):
        with pytest.raises(ValueError):
            ASCORBATE.current_a(0.0, WORKING_POTENTIAL)


def interference_a(matrix, nafion_film=False):
    """Summed interferent current [A] of ``matrix`` at the working
    potential."""
    return sum(i.current_a(AREA, WORKING_POTENTIAL, nafion_film=nafion_film)
               for i in matrix.interferents)


class TestMatrices:
    def test_buffer_is_clean(self):
        assert interference_a(BUFFER) == 0.0
        assert BUFFER.fouling_rate_per_hour == 0.0

    def test_serum_is_dirty(self):
        assert interference_a(SERUM) > 0
        assert SERUM.fouling_rate_per_hour > 0

    def test_serum_interference_reduced_by_nafion(self):
        assert interference_a(SERUM, nafion_film=True) < interference_a(SERUM)

    def test_fouling_decays_sensitivity(self):
        assert SERUM.sensitivity_retention(0.0) == pytest.approx(1.0)
        day = SERUM.sensitivity_retention(24.0)
        assert 0.0 < day < 1.0

    def test_culture_medium_gentler_than_serum(self):
        assert CELL_CULTURE_MEDIUM.fouling_rate_per_hour \
            < SERUM.fouling_rate_per_hour

    def test_baseline_drift_accumulates(self):
        assert SERUM.baseline_drift_a(AREA, 10.0) \
            == pytest.approx(10 * SERUM.baseline_drift_a(AREA, 1.0))

    def test_serum_oxygen_below_air_saturation(self):
        assert SERUM.oxygen_molar < BUFFER.oxygen_molar

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            SERUM.sensitivity_retention(-1.0)


class TestMatrixBatchKernels:
    def test_retention_batch_matches_scalar(self):
        hours = np.array([[0.0, 12.0, 48.0], [6.0, 24.0, 168.0]])
        batch = SERUM.sensitivity_retention_batch(hours)
        for row in range(hours.shape[0]):
            for col in range(hours.shape[1]):
                assert batch[row, col] == pytest.approx(
                    SERUM.sensitivity_retention(float(hours[row, col])),
                    rel=1e-12)

    def test_baseline_drift_batch_matches_scalar(self):
        hours = np.array([[0.0, 24.0], [12.0, 168.0]])
        area = 1e-6
        batch = SERUM.baseline_drift_batch_a(area, hours)
        for row in range(hours.shape[0]):
            for col in range(hours.shape[1]):
                assert batch[row, col] == pytest.approx(
                    SERUM.baseline_drift_a(area, float(hours[row, col])),
                    rel=1e-12)

    def test_batch_kernels_validate(self):
        with pytest.raises(ValueError):
            SERUM.sensitivity_retention_batch(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            SERUM.baseline_drift_batch_a(0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            SERUM.baseline_drift_batch_a(1e-6, np.array([-1.0]))
