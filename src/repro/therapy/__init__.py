"""Closed-loop therapy: dosing controllers and window metrics.

The decision layer of the personalized-medicine loop the paper motivates:
:mod:`repro.pk` says what a dose does, the sensor stack says what was
measured, and this package decides *what to give next* — from fixed
population dosing through reactive trough titration to model-informed
Bayesian individualization (:mod:`repro.therapy.controllers`) — and
scores the outcome against the therapeutic window
(:mod:`repro.therapy.metrics`).  The loop itself is closed by
:mod:`repro.engine.therapy`.
"""

from repro.therapy.controllers import (
    BayesianTroughController,
    ControllerObservation,
    DosingController,
    FixedRegimenController,
    ProportionalTroughController,
    RegimenSpec,
)
from repro.therapy.metrics import (
    fraction_above_window,
    fraction_below_window,
    time_in_range,
    trough_abs_rel_error,
)

__all__ = [
    "BayesianTroughController",
    "ControllerObservation",
    "DosingController",
    "FixedRegimenController",
    "ProportionalTroughController",
    "RegimenSpec",
    "fraction_above_window",
    "fraction_below_window",
    "time_in_range",
    "trough_abs_rel_error",
]
