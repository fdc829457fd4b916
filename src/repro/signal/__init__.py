"""Digital signal processing for electrochemical traces.

The analysis a bench electrochemist performs on raw instrument output:
smoothing, baseline estimation and subtraction (voltammetry), peak finding
(CYP drug sensing), steady-state extraction (chronoamperometry) and drift
handling (long-term monitoring).
"""

from repro.signal.smoothing import (
    moving_average,
    savitzky_golay,
)
from repro.signal.baseline import (
    fit_polynomial_baseline,
    subtract_baseline,
    baseline_from_flanks,
)
from repro.signal.peaks import PeakMeasurement, measure_peak, find_peak_index
from repro.signal.steady_state import (
    SteadyStateResult,
    extract_steady_state,
    extract_steady_state_batch,
)
from repro.signal.drift import (
    ou_process_batch,
)

__all__ = [
    "moving_average",
    "savitzky_golay",
    "fit_polynomial_baseline",
    "subtract_baseline",
    "baseline_from_flanks",
    "PeakMeasurement",
    "measure_peak",
    "find_peak_index",
    "SteadyStateResult",
    "extract_steady_state",
    "extract_steady_state_batch",
    "ou_process_batch",
]
