"""Tests for repro.inference.evaluate (RMSE, coverage, detection)."""

import numpy as np
import pytest

from repro.inference.evaluate import (
    credible_interval,
    interval_coverage,
    reconstruction_mard,
    reconstruction_rmse,
)


class TestErrors:
    def test_rmse_per_channel(self):
        true = np.array([[1.0, 1.0], [2.0, 2.0]])
        est = np.array([[1.0, 2.0], [2.0, 2.0]])
        rmse = reconstruction_rmse(true, est)
        np.testing.assert_allclose(rmse, [np.sqrt(0.5), 0.0])

    def test_mard_excludes_non_positive_truth(self):
        true = np.array([[0.0, 2.0, 4.0]])
        est = np.array([[5.0, 1.0, 4.0]])
        # Only the 2.0 and 4.0 samples count: (0.5 + 0.0) / 2.
        np.testing.assert_allclose(reconstruction_mard(true, est), [0.25])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            reconstruction_rmse(np.zeros((1, 3)), np.zeros((1, 4)))


class TestIntervals:
    def test_band_is_symmetric_and_clipped(self):
        est = np.array([[1.0, 0.1]])
        std = np.array([[0.2, 0.2]])
        lower, upper = credible_interval(est, std, z=1.96)
        np.testing.assert_allclose(upper, est + 1.96 * std)
        assert lower[0, 0] == pytest.approx(1.0 - 1.96 * 0.2)
        assert lower[0, 1] == 0.0  # clipped at the physical floor

    def test_coverage_counts_containment(self):
        true = np.array([[1.0, 2.0, 3.0, 4.0]])
        lower = np.array([[0.5, 2.5, 2.5, 3.5]])
        upper = np.array([[1.5, 3.5, 3.5, 4.5]])
        np.testing.assert_allclose(
            interval_coverage(true, lower, upper), [0.75])

    def test_gaussian_coverage_is_nominal(self):
        rng = np.random.default_rng(0)
        true = rng.standard_normal((4, 5000))
        est = np.zeros_like(true) + 5.0
        lower, upper = credible_interval(est, np.ones_like(true), 1.96)
        coverage = interval_coverage(true + 5.0, lower, upper)
        assert np.all((coverage > 0.93) & (coverage < 0.97))

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            credible_interval(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)
