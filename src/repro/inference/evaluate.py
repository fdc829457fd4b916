"""Reconstruction scoring: error and calibration.

Two questions decide whether a reconstructed concentration trajectory
is clinically usable, and this module answers each one per channel:

* **accuracy** — RMSE and MARD of the reconstruction against the
  simulator's ground truth;
* **calibration** — does the stated 95 % credible interval actually
  contain the truth ~95 % of the time?  (Empirical coverage is the
  acceptance gate of the whole inference subsystem: a filter whose
  intervals are wrong is worse than no filter, because it is
  *confidently* wrong.)

All routines take ``(n_channels, n_samples)`` arrays and return one
value per channel, matching the engines' result conventions.
"""

from __future__ import annotations

import numpy as np


def _check_pair(true: np.ndarray, other: np.ndarray):
    """Validate a (truth, estimate-like) array pair into 2-D floats."""
    true = np.atleast_2d(np.asarray(true, dtype=float))
    other = np.atleast_2d(np.asarray(other, dtype=float))
    if true.shape != other.shape:
        raise ValueError(
            f"shape mismatch: {true.shape} vs {other.shape}")
    return true, other


def reconstruction_rmse(true_molar: np.ndarray,
                        estimated_molar: np.ndarray) -> np.ndarray:
    """Root-mean-square reconstruction error per channel [mol/L].

    Args:
        true_molar: ground-truth concentrations,
            ``(n_channels, n_samples)``.
        estimated_molar: reconstructed concentrations, same shape.

    Returns:
        RMSE per channel, ``(n_channels,)``.
    """
    true, est = _check_pair(true_molar, estimated_molar)
    return np.sqrt(np.mean((est - true) ** 2, axis=1))


def reconstruction_mard(true_molar: np.ndarray,
                        estimated_molar: np.ndarray) -> np.ndarray:
    """Mean absolute relative difference per channel (the CGM metric).

    Samples with non-positive truth are excluded, mirroring the
    accounting of :func:`repro.engine.monitor.run_monitor`.

    Args:
        true_molar: ground-truth concentrations,
            ``(n_channels, n_samples)``.
        estimated_molar: reconstructed concentrations, same shape.

    Returns:
        MARD per channel, ``(n_channels,)``.
    """
    true, est = _check_pair(true_molar, estimated_molar)
    valid = true > 0
    rel = np.zeros_like(true)
    np.divide(np.abs(est - true), true, out=rel, where=valid)
    counts = np.maximum(np.sum(valid, axis=1), 1)
    return np.sum(rel, axis=1, where=valid) / counts


def credible_interval(estimated_molar: np.ndarray,
                      std_molar: np.ndarray,
                      z: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric Gaussian credible band around a reconstruction.

    The lower bound clips at zero — a concentration cannot be negative,
    and the truth the band is scored against never is.

    Args:
        estimated_molar: reconstruction means,
            ``(n_channels, n_samples)``.
        std_molar: posterior standard deviations, same shape.
        z: the two-sided normal quantile (1.96 for 95 %).

    Returns:
        ``(lower, upper)`` arrays, same shape as the inputs.
    """
    est, std = _check_pair(estimated_molar, std_molar)
    if z <= 0:
        raise ValueError("z quantile must be > 0")
    if np.any(std < 0):
        raise ValueError("standard deviations must be >= 0")
    return np.maximum(est - z * std, 0.0), est + z * std


def interval_coverage(true_molar: np.ndarray,
                      lower_molar: np.ndarray,
                      upper_molar: np.ndarray) -> np.ndarray:
    """Fraction of samples whose truth falls inside the stated band.

    Args:
        true_molar: ground-truth concentrations,
            ``(n_channels, n_samples)``.
        lower_molar / upper_molar: the credible band
            (:func:`credible_interval`), same shape.

    Returns:
        Empirical coverage per channel, ``(n_channels,)`` — compare
        against the nominal level (0.95 for a 95 % band).
    """
    true, lower = _check_pair(true_molar, lower_molar)
    _, upper = _check_pair(true_molar, upper_molar)
    return np.mean((true >= lower) & (true <= upper), axis=1)
