"""Steady-state extraction from chronoamperometric step responses.

After each substrate addition the current relaxes to a new plateau; the
calibration point is the plateau level.  The extractor averages the tail of
the record and reports a settledness diagnostic (residual slope vs. noise)
so un-settled steps are flagged instead of silently biasing calibrations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SteadyStateResult:
    """Plateau estimate from a step response.

    Attributes:
        value: plateau current estimate [A] (tail mean).
        std: sample standard deviation within the tail [A].
        n_samples: number of samples averaged.
        residual_slope_per_s: linear slope remaining in the tail [A/s].
        settled: True when the remaining slope over the tail duration is
            smaller than the tail noise.
    """

    value: float
    std: float
    n_samples: int
    residual_slope_per_s: float
    settled: bool


def extract_steady_state(time_s: np.ndarray,
                         current_a: np.ndarray,
                         tail_fraction: float = 0.25) -> SteadyStateResult:
    """Average the last ``tail_fraction`` of a step record.

    Args:
        time_s: sample timestamps (monotonic).
        current_a: current record.
        tail_fraction: portion of the record treated as plateau.
    """
    time_s = np.asarray(time_s, dtype=float)
    current_a = np.asarray(current_a, dtype=float)
    if time_s.shape != current_a.shape:
        raise ValueError("time and current must share one shape")
    if time_s.size < 4:
        raise ValueError("record too short for steady-state extraction")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail fraction must be in (0, 1], got {tail_fraction}")

    n_tail = max(2, int(round(time_s.size * tail_fraction)))
    tail_t = time_s[-n_tail:]
    tail_i = current_a[-n_tail:]
    value = float(np.mean(tail_i))
    std = float(np.std(tail_i, ddof=1))
    slope = float(np.polyfit(tail_t, tail_i, 1)[0])
    duration = float(tail_t[-1] - tail_t[0])
    drift_over_tail = abs(slope) * duration
    # Settled when the residual drift is buried in the tail noise or is
    # negligible relative to the plateau itself (noiseless records).
    threshold = max(2.0 * std, 1e-3 * abs(value), 1e-30)
    settled = bool(drift_over_tail <= threshold)
    return SteadyStateResult(value=value, std=std, n_samples=n_tail,
                             residual_slope_per_s=slope, settled=settled)


def extract_steady_state_batch(time_s: np.ndarray,
                               current_a: np.ndarray,
                               tail_fraction: float = 0.25) -> np.ndarray:
    """Vectorized plateau extraction over a batch of step records.

    Args:
        time_s: shared sample timestamps, shape ``(n_samples,)``.
        current_a: batch of records, shape ``(n_cells, n_samples)``.
        tail_fraction: portion of each record treated as plateau.

    Returns:
        Plateau estimates [A], shape ``(n_cells,)``.  Each entry equals
        the ``value`` :func:`extract_steady_state` reports for the same
        row (same tail-length rule, same mean), without the per-record
        settledness diagnostic — batch callers that need the diagnostic
        re-analyze the flagged rows individually.
    """
    time_s = np.asarray(time_s, dtype=float)
    current_a = np.asarray(current_a, dtype=float)
    if current_a.ndim != 2:
        raise ValueError("batch records must be (n_cells, n_samples)")
    if time_s.shape != (current_a.shape[1],):
        raise ValueError("time grid must match the sample axis")
    if time_s.size < 4:
        raise ValueError("record too short for steady-state extraction")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail fraction must be in (0, 1], got {tail_fraction}")
    n_tail = max(2, int(round(time_s.size * tail_fraction)))
    return np.mean(current_a[:, -n_tail:], axis=1)
