"""Physiological / therapeutic concentration ranges and trajectories.

Whether a sensor's linear range *covers the clinically relevant window* is
the acceptance criterion behind several Table 2 narratives: the N-doped CNT
lactate sensor [16] beats the paper's sensitivity but its 0.014-0.325 mM
range "cannot fit with physiological lactate concentration" (section 3.2.2).

For the continuous-monitoring workload (the paper's chronic-patient
pitch), a static window is not enough: the streaming monitor
(:mod:`repro.engine.monitor`) needs the concentration a patient actually
*traverses* over days of wear.  :class:`ConcentrationTrajectory` models
that as a circadian oscillation around a baseline plus periodic
meal/dose excursions with first-order clearance — deterministic in time,
so a cohort evaluates as one vectorized pass; the random physiological
component rides on top as a seedable Ornstein-Uhlenbeck process managed
by the monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class PhysiologicalRange:
    """Clinically relevant concentration window for an analyte.

    Attributes:
        analyte: analyte name.
        low_molar / high_molar: window bounds [mol/L].
        context: fluid / scenario the window refers to.
    """

    analyte: str
    low_molar: float
    high_molar: float
    context: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_molar < self.high_molar:
            raise ValueError(
                f"{self.analyte}: need 0 <= low < high, got "
                f"({self.low_molar}, {self.high_molar})")

    @property
    def span_molar(self) -> float:
        """Window width [mol/L]."""
        return self.high_molar - self.low_molar


@dataclass(frozen=True)
class ConcentrationTrajectory:
    """Concentration course of one monitored patient channel.

    The deterministic part — evaluable at arbitrary wear times, which is
    what makes chunked streaming reproducible — is a baseline with a
    circadian oscillation plus periodic excursions (meals for metabolites,
    doses for drugs) that clear first-order:

    ``C(t) = baseline + A_c sin(2 pi (t - phase)/period)
           + A_e exp(-dt/tau) / (1 - exp(-interval/tau))``

    where ``dt`` is the time since the latest excursion (steady-state sum
    over all past events).  The stochastic physiological component is
    described by the OU parameters ``noise_sigma_molar``/``noise_tau_h``;
    the streaming monitor draws it per channel via
    :func:`repro.signal.drift.ou_process_batch`.

    Attributes:
        baseline_molar: resting concentration [mol/L].
        circadian_amplitude_molar: amplitude of the 24 h oscillation
            [mol/L] (0 disables it).
        circadian_period_h: oscillation period [h].
        circadian_phase_h: time of the oscillation's zero upcrossing [h].
        excursion_amplitude_molar: peak height of each meal/dose
            excursion [mol/L] (0 disables them).
        excursion_interval_h: excursion cadence [h] (e.g. 6 h meals,
            12 h doses).
        excursion_tau_h: first-order clearance time of an excursion [h].
        noise_sigma_molar: stationary std of the random physiological
            component [mol/L] (consumed by the monitor).
        noise_tau_h: correlation time of that component [h].
        floor_molar: physical lower clamp [mol/L] applied after noise.
    """

    baseline_molar: float
    circadian_amplitude_molar: float = 0.0
    circadian_period_h: float = 24.0
    circadian_phase_h: float = 0.0
    excursion_amplitude_molar: float = 0.0
    excursion_interval_h: float = 6.0
    excursion_tau_h: float = 1.5
    noise_sigma_molar: float = 0.0
    noise_tau_h: float = 1.0
    floor_molar: float = 0.0

    def __post_init__(self) -> None:
        if self.baseline_molar < 0 or (
                self.baseline_molar == 0.0
                and self.excursion_amplitude_molar == 0.0):
            # A zero baseline is legal only when excursions carry the
            # signal (PK-driven drug courses decay to ~zero troughs).
            raise ValueError("baseline must be > 0 (or excursions present)")
        if self.circadian_amplitude_molar < 0:
            raise ValueError("circadian amplitude must be >= 0")
        if self.circadian_period_h <= 0:
            raise ValueError("circadian period must be > 0")
        if self.excursion_amplitude_molar < 0:
            raise ValueError("excursion amplitude must be >= 0")
        if self.excursion_interval_h <= 0 or self.excursion_tau_h <= 0:
            raise ValueError("excursion interval and tau must be > 0")
        if self.noise_sigma_molar < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.noise_tau_h <= 0:
            raise ValueError("noise tau must be > 0")
        if self.floor_molar < 0:
            raise ValueError("floor must be >= 0")

    def mean_molar(self, hours: np.ndarray | float) -> np.ndarray | float:
        """Deterministic concentration [mol/L] at the given wear times.

        Pure function of absolute wear time — never of how the caller
        chunks the time axis — which is the property the streaming
        monitor's chunk-invariance contract rests on.  A one-row
        :func:`cohort_mean_molar`.

        Args:
            hours: wear times [h], scalar or any array shape.

        Returns:
            Concentrations [mol/L], shaped like the input.
        """
        value = cohort_mean_molar((self,), hours)[0]
        if np.isscalar(hours):
            return float(value)
        return value

    @classmethod
    def from_pk(cls, model: "OneCompartmentPK",  # noqa: F821 (lazy import)
                dose_mol: float,
                interval_h: float,
                relative_noise: float = 0.0,
                noise_tau_h: float = 1.0,
                baseline_molar: float = 0.0) -> "ConcentrationTrajectory":
        """Map a steady-state repeat-dose regimen onto the trajectory.

        The excursion term of this class *is* the steady-state
        superposition of a mono-exponentially cleared repeated input —
        so a one-compartment IV bolus regimen maps onto it **exactly**:
        amplitude ``F D / V``, clearance time ``1/ke``, cadence the
        dosing interval.  For oral dosing the same mapping is the
        standard peak envelope (absorption smooths the rising edge but
        leaves the cleared tail, which dominates trough behavior,
        unchanged).  This is the bridge that lets existing monitor
        workloads (:mod:`repro.engine.monitor`) consume PK-driven drug
        courses without adopting the full therapy engine.

        Args:
            model: the patient's one-compartment model
                (:class:`repro.pk.models.OneCompartmentPK`).
            dose_mol: maintenance dose [mol].
            interval_h: dosing interval [h], > 0.
            relative_noise: OU noise sigma as a fraction of the
                excursion amplitude.
            noise_tau_h: correlation time of that noise [h].
            baseline_molar: endogenous background level [mol/L]
                (0 for xenobiotic drugs).

        Returns:
            The equivalent :class:`ConcentrationTrajectory`.
        """
        if dose_mol <= 0:
            raise ValueError("dose must be > 0")
        if interval_h <= 0:
            raise ValueError("dose interval must be > 0")
        if relative_noise < 0:
            raise ValueError("relative noise must be >= 0")
        amplitude = (model.bioavailability * dose_mol / model.volume_l)
        return cls(
            baseline_molar=baseline_molar,
            excursion_amplitude_molar=amplitude,
            excursion_interval_h=interval_h,
            excursion_tau_h=1.0 / model.elimination_rate_per_h,
            noise_sigma_molar=relative_noise * amplitude,
            noise_tau_h=noise_tau_h,
            floor_molar=0.0,
        )

    @classmethod
    def for_analyte(cls, analyte: str,
                    relative_noise: float = 0.03) -> "ConcentrationTrajectory":
        """Build a representative trajectory inside an analyte's window.

        The baseline sits at the window midpoint; the circadian swing and
        meal/dose excursions each span a fraction of the window, so the
        whole course stays clinically plausible (and inside the linear
        range of a sensor that covers the window).

        Args:
            analyte: key into the physiological-range catalog.
            relative_noise: OU noise sigma as a fraction of the window
                span.

        Returns:
            A :class:`ConcentrationTrajectory` for one patient channel.
        """
        window = physiological_range(analyte)
        mid = 0.5 * (window.low_molar + window.high_molar)
        span = window.span_molar
        return cls(
            baseline_molar=mid,
            circadian_amplitude_molar=0.15 * span,
            excursion_amplitude_molar=0.20 * span,
            excursion_interval_h=6.0,
            excursion_tau_h=1.5,
            noise_sigma_molar=relative_noise * span,
            noise_tau_h=1.0,
            floor_molar=max(window.low_molar * 0.25, 0.0),
        )


#: The deterministic parameters of a trajectory, in formula order.
_MEAN_FIELDS = attrgetter(
    "baseline_molar", "circadian_amplitude_molar", "circadian_period_h",
    "circadian_phase_h", "excursion_amplitude_molar", "excursion_interval_h",
    "excursion_tau_h", "floor_molar")


def cohort_mean_molar(trajectories: "Sequence[ConcentrationTrajectory]",
                      hours: np.ndarray | float) -> np.ndarray:
    """Deterministic concentrations [mol/L] of a cohort, in one pass.

    The :class:`ConcentrationTrajectory` formula over per-row parameter
    columns, shaped ``(len(trajectories),) + np.shape(hours)``.  A term
    whose parameters every row shares runs once on ``hours`` alone; a
    row without a term (zero amplitude) adds an exact zero.
    """
    t = np.asarray(hours, dtype=float)
    if (t < 0).any():
        raise ValueError("wear time must be >= 0")
    rows = [_MEAN_FIELDS(trajectory) for trajectory in trajectories]
    column = (len(rows),) + (1,) * t.ndim
    (value, circadian, _, _, excursion, _, _, floor) = np.array(
        rows).T.reshape((8,) + column)
    terms = _term_parameters(rows, 1, column)
    if terms is not None:
        period, phase = terms
        value = value + circadian * np.sin(
            2.0 * np.pi * (t - phase) / period)
    terms = _term_parameters(rows, 4, column)
    if terms is not None:
        interval, tau = terms
        since_last = np.mod(t, interval)
        # Steady-state geometric sum over all previous excursions.
        normalization = 1.0 - np.exp(-interval / tau)
        value = value + (excursion * np.exp(-since_last / tau)
                         / normalization)
    return np.maximum(value, floor, out=np.empty(column[:1] + t.shape))


def _term_parameters(rows: list, amplitude: int, column: tuple):
    """The two parameters after ``row[amplitude]``: scalars when all rows
    share them, else ``column``-shaped arrays; ``None`` when no row has
    the term.  Rows without it take 1.0 for both, which keeps their zero
    contribution finite."""
    active = [row[amplitude] > 0 for row in rows]
    if not any(active):
        return None
    parameters = [row[amplitude + 1:amplitude + 3] if on else (1.0, 1.0)
                  for row, on in zip(rows, active)]
    if all(pair == parameters[0] for pair in parameters):
        return parameters[0]
    return np.array(parameters).T.reshape((2,) + column)


_RANGES: dict[str, PhysiologicalRange] = {
    "glucose": PhysiologicalRange(
        "glucose", 3.0e-3, 10.0e-3, "blood, normal-to-hyperglycemic"),
    "lactate": PhysiologicalRange(
        "lactate", 0.5e-3, 2.0e-3, "resting blood (up to ~25 mM in exercise)"),
    "glutamate": PhysiologicalRange(
        "glutamate", 1.0e-6, 100e-6, "extracellular brain tissue / culture"),
    "arachidonic acid": PhysiologicalRange(
        "arachidonic acid", 1.0e-6, 20e-6, "free plasma fraction"),
    "cyclophosphamide": PhysiologicalRange(
        "cyclophosphamide", 10e-6, 60e-6, "plasma during therapy"),
    "ifosfamide": PhysiologicalRange(
        "ifosfamide", 20e-6, 120e-6, "plasma during therapy"),
    "ftorafur": PhysiologicalRange(
        "ftorafur", 1.0e-6, 8e-6, "plasma during therapy"),
    "cell-culture lactate": PhysiologicalRange(
        "cell-culture lactate", 0.1e-3, 1.0e-3,
        "neural cell culture medium (the paper's monitoring use case)"),
}


def physiological_range(analyte: str) -> PhysiologicalRange:
    """Return the clinical window for ``analyte`` (KeyError when unknown)."""
    try:
        return _RANGES[analyte]
    except KeyError:
        raise KeyError(
            f"no physiological range for {analyte!r}; "
            f"available: {sorted(_RANGES)}") from None


def covers_physiological_range(analyte: str,
                               linear_low_molar: float,
                               linear_high_molar: float) -> bool:
    """True when a sensor's linear range covers the full clinical window.

    This is the check behind the section 3.2.2 narrative: a sensor may beat
    another on sensitivity yet fail here.
    """
    if linear_low_molar < 0 or linear_high_molar <= linear_low_molar:
        raise ValueError("need 0 <= low < high")
    window = physiological_range(analyte)
    return (linear_low_molar <= window.low_molar
            and linear_high_molar >= window.high_molar)
