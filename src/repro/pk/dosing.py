"""Dose regimens evaluated by superposition.

A linear PK model responds to a regimen as the sum of its per-dose unit
responses, so a regimen evaluates in closed form at any set of times by
superposing :meth:`repro.pk.models.PKParams.unit_response` kernels, one
per dose.  :func:`concentration_from_doses` is that superposition; the
closed-loop therapy engine calls it with *per-patient* dose arrays,
because an adaptive controller gives every virtual patient its own dose
history.
"""

from __future__ import annotations

import numpy as np

from repro.pk.models import PKParams, Route


def concentration_from_doses(times_h: np.ndarray | float,
                             dose_times_h: np.ndarray,
                             doses_mol: np.ndarray,
                             params: PKParams,
                             route: Route = Route.ORAL,
                             duration_h: float = 0.0) -> np.ndarray:
    """Superpose dose responses over a cohort: the core PK batch kernel.

    Evaluates ``C[p, t] = sum_m doses[p, m] * unit_response(t - t_m)``
    for every patient and time in one vectorized pass per dose event.
    Doses still in the future at an evaluation time contribute exactly
    zero, so the same call works mid-regimen.

    Args:
        times_h: evaluation times [h], ``(n_times,)`` (shared by the
            cohort) or scalar.
        dose_times_h: administration times [h], ``(n_doses,)``.
        doses_mol: administered amounts [mol]: ``(n_patients, n_doses)``
            for per-patient regimens, ``(n_doses,)`` shared by the
            cohort, or scalar shared by every dose and patient.
        params: per-patient model parameters.
        route: administration route shared by the events.
        duration_h: infusion duration [h] (INFUSION route only).

    Returns:
        Concentrations [mol/L], shape ``(n_patients, n_times)``.
    """
    t = np.atleast_1d(np.asarray(times_h, dtype=float))
    dose_times = np.atleast_1d(np.asarray(dose_times_h, dtype=float))
    doses = np.asarray(doses_mol, dtype=float)
    if doses.ndim == 0:
        doses = np.full((params.n_patients, dose_times.size), float(doses))
    elif doses.ndim == 1:
        if doses.size != dose_times.size:
            raise ValueError("doses and dose times must align")
        doses = np.broadcast_to(doses, (params.n_patients, doses.size))
    if doses.shape != (params.n_patients, dose_times.size):
        raise ValueError(
            f"doses shaped {doses.shape}, expected "
            f"({params.n_patients}, {dose_times.size})")
    if np.any(doses < 0):
        raise ValueError("doses must be >= 0")
    total = np.zeros((params.n_patients, t.size))
    for m, t_dose in enumerate(dose_times):
        total = total + doses[:, m:m + 1] * params.unit_response(
            t[None, :] - t_dose, route, duration_h)
    return total


def steady_state_trough_per_mol(params: PKParams,
                                interval_h: float,
                                route: Route = Route.ORAL,
                                duration_h: float = 0.0,
                                n_doses: int = 200) -> np.ndarray:
    """Steady-state trough concentration per mol of maintenance dose.

    The regimen-design primitive: under equal doses every ``interval_h``
    the trough converges to a geometric sum of the unit response, here
    evaluated by superposing ``n_doses`` past administrations (the tail
    beyond 200 intervals is below double precision for any clinically
    sensible half-life/interval ratio).  Dosing controllers use this to
    turn a target trough into an initial dose.

    Args:
        params: per-patient model parameters.
        interval_h: dosing interval [h], > 0.
        route: administration route.
        duration_h: infusion duration [h] (INFUSION route only).
        n_doses: superposition depth of the steady-state evaluation.

    Returns:
        Trough level per mol of dose [1/L], shape ``(n_patients,)``.
    """
    if interval_h <= 0:
        raise ValueError("dose interval must be > 0")
    if n_doses < 1:
        raise ValueError("need at least one dose")
    ages_h = (np.arange(n_doses, dtype=float) + 1.0) * interval_h
    return np.sum(params.unit_response(ages_h[None, :], route, duration_h),
                  axis=1)
