"""Trace smoothing primitives."""

from __future__ import annotations

import numpy as np
from scipy.signal import savgol_filter


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge handling by shrinking windows.

    Preserves the array length; near the edges the window shrinks
    symmetrically instead of zero-padding (which would bias baselines).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("input must be one-dimensional")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window == 1 or x.size <= 2:
        return x.copy()
    window = min(window, x.size)
    half = window // 2
    cumulative = np.concatenate(([0.0], np.cumsum(x)))
    out = np.empty_like(x)
    for i in range(x.size):
        lo = max(0, i - half)
        hi = min(x.size, i + half + 1)
        out[i] = (cumulative[hi] - cumulative[lo]) / (hi - lo)
    return out


def savitzky_golay(x: np.ndarray, window: int, polyorder: int = 2) -> np.ndarray:
    """Savitzky-Golay smoothing (peak-shape preserving).

    The standard pre-filter before peak-height measurement: unlike a moving
    average it does not clip peak amplitudes of polynomial order up to
    ``polyorder``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("input must be one-dimensional")
    if window < 3:
        raise ValueError(f"window must be >= 3, got {window}")
    if window % 2 == 0:
        window += 1
    window = min(window, x.size if x.size % 2 == 1 else x.size - 1)
    if window <= polyorder:
        return x.copy()
    return savgol_filter(x, window_length=window, polyorder=polyorder)
