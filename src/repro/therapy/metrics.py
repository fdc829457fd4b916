"""Therapeutic-window metrics: how good was the dosing, per patient.

The closed-loop analogue of the monitor's MARD/time-in-spec pair: these
kernels score a therapy course from the *true* concentration traces the
engine simulated — time inside the window and trough-targeting error.
All of them are batch-shaped ``(n_patients, ...) -> (n_patients,)``
reductions, so a cohort scores in one array pass.
"""

from __future__ import annotations

import numpy as np

from repro.pk.drugs import TherapeuticWindow


def _as_cohort(concentration_molar: np.ndarray) -> np.ndarray:
    """Validate and lift a concentration block to (n_patients, n_times)."""
    c = np.asarray(concentration_molar, dtype=float)
    if c.ndim == 1:
        c = c[None, :]
    if c.ndim != 2 or c.shape[1] < 1:
        raise ValueError(
            f"need a (n_patients, n_times) block, got shape {c.shape}")
    return c


def time_in_range(concentration_molar: np.ndarray,
                  window: TherapeuticWindow) -> np.ndarray:
    """Fraction of samples inside the therapeutic window, per patient.

    Args:
        concentration_molar: true levels, ``(n_patients, n_times)``.
        window: the therapeutic window.

    Returns:
        In-window fractions in [0, 1], shape ``(n_patients,)``.
    """
    c = _as_cohort(concentration_molar)
    inside = (c >= window.low_molar) & (c <= window.high_molar)
    return np.mean(inside, axis=1)


def fraction_below_window(concentration_molar: np.ndarray,
                          window: TherapeuticWindow) -> np.ndarray:
    """Fraction of samples below the window (sub-therapeutic), per patient."""
    c = _as_cohort(concentration_molar)
    return np.mean(c < window.low_molar, axis=1)


def fraction_above_window(concentration_molar: np.ndarray,
                          window: TherapeuticWindow) -> np.ndarray:
    """Fraction of samples above the window (toxic range), per patient."""
    c = _as_cohort(concentration_molar)
    return np.mean(c > window.high_molar, axis=1)


def trough_abs_rel_error(troughs_molar: np.ndarray,
                         target_trough_molar: float,
                         skip_first: int = 0) -> np.ndarray:
    """Mean absolute relative trough-targeting error, per patient.

    The closed loop's primary score: how far the realized troughs sit
    from the target, averaged over the course.  Early intervals may be
    excluded (``skip_first``) to score the *controlled* phase only — a
    controller cannot influence the very first trough.

    Args:
        troughs_molar: realized troughs, ``(n_patients, n_intervals)``.
        target_trough_molar: the target level [mol/L], > 0.
        skip_first: leading intervals to exclude from the average.

    Returns:
        Mean ``|trough - target| / target``, shape ``(n_patients,)``.
    """
    if target_trough_molar <= 0:
        raise ValueError("target trough must be > 0")
    troughs = _as_cohort(troughs_molar)
    if not 0 <= skip_first < troughs.shape[1]:
        raise ValueError("skip_first must leave at least one interval")
    scored = troughs[:, skip_first:]
    return np.mean(np.abs(scored - target_trough_molar)
                   / target_trough_molar, axis=1)
