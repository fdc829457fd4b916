"""Compartmental pharmacokinetic models in closed form.

The paper's personalized-medicine pitch is a feedback loop: the CYP450
sensor panel tracks a drug in an individual patient so the *dose* can be
adjusted to that patient.  Closing that loop needs a forward model of
what a dose does — this module provides it as one- and two-compartment
models with first-order absorption and CYP-mediated clearance.

Everything is evaluated **in closed form**: a dose administered at time
``t0`` contributes a known exponential (or bi-/tri-exponential) response
at every later time, so a whole regimen is a superposition of per-dose
kernels and a cohort of virtual patients evaluates as one
``(n_patients, n_times)`` NumPy pass — no ODE integrator, no time
stepping, and therefore no step-size error to manage.  This follows the
engine convention of PR 1/PR 2: **batch kernels** over parameter arrays
first, a thin scalar dataclass (:class:`OneCompartmentPK`) on top.

Conventions (shared by the whole ``repro.pk`` package):

* times in hours, volumes in litres, clearances in L/h;
* amounts in **mol** and concentrations in **mol/L**, so PK output plugs
  straight into the sensor stack's molar world;
* every unit-response kernel returns the concentration per **mol of
  administered dose** (units 1/L); multiply by the dose to get mol/L;
* ``dt_h < 0`` (dose not yet given) contributes exactly 0.0 — which is
  what makes naive superposition over a growing dose list correct.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

#: Relative spacing below which absorption and elimination rates are
#: treated as equal and the flip-flop limit formula is used (the generic
#: two-exponential formula loses all precision as ``ka -> ke``).
_RATE_DEGENERACY_RTOL = 1e-9


class Route(enum.Enum):
    """Administration route of a dose."""

    IV_BOLUS = "iv_bolus"
    ORAL = "oral"
    INFUSION = "infusion"


def _as_columns(*params: np.ndarray | float) -> tuple[np.ndarray, ...]:
    """Lift per-patient parameter vectors to broadcast against time axes.

    A ``(n_patients,)`` parameter becomes ``(n_patients, 1)`` so it
    broadcasts against ``(n_patients, n_times)`` or ``(n_times,)`` time
    arrays; scalars pass through unchanged.
    """
    out = []
    for p in params:
        a = np.asarray(p, dtype=float)
        out.append(a[:, None] if a.ndim == 1 else a)
    return tuple(out)


def one_compartment_bolus_batch(dt_h: np.ndarray | float,
                                clearance_l_per_h: np.ndarray | float,
                                volume_l: np.ndarray | float) -> np.ndarray:
    """Unit IV-bolus response of a one-compartment model.

    ``c(dt) = exp(-ke dt) / V`` with ``ke = CL/V``; 0 for ``dt < 0``.

    Args:
        dt_h: times since the dose [h], shape ``(n_times,)`` or
            ``(n_patients, n_times)``.
        clearance_l_per_h: per-patient clearance [L/h], scalar or
            ``(n_patients,)``.
        volume_l: per-patient distribution volume [L].

    Returns:
        Concentration per mol of dose [1/L], broadcast of the inputs.
    """
    cl, v = _as_columns(clearance_l_per_h, volume_l)
    dt = np.asarray(dt_h, dtype=float)
    ke = cl / v
    given = dt >= 0.0
    return np.where(given, np.exp(-ke * np.where(given, dt, 0.0)) / v, 0.0)


def one_compartment_oral_batch(dt_h: np.ndarray | float,
                               clearance_l_per_h: np.ndarray | float,
                               volume_l: np.ndarray | float,
                               ka_per_h: np.ndarray | float,
                               bioavailability: np.ndarray | float = 1.0,
                               ) -> np.ndarray:
    """Unit oral-dose response with first-order absorption.

    The Bateman function,

    ``c(dt) = F ka / (V (ka - ke)) (exp(-ke dt) - exp(-ka dt))``,

    evaluated with the flip-flop limit ``c = F ka dt exp(-ka dt) / V``
    where ``ka`` and ``ke`` degenerate (relative spacing below 1e-9), so
    the kernel is well-conditioned for every parameter draw a population
    sampler can produce.  0 for ``dt < 0``.

    Args:
        dt_h: times since the dose [h].
        clearance_l_per_h: per-patient clearance [L/h].
        volume_l: per-patient distribution volume [L].
        ka_per_h: first-order absorption rate [1/h].
        bioavailability: absorbed fraction F in (0, 1].

    Returns:
        Concentration per mol of dose [1/L], broadcast of the inputs.
    """
    cl, v, ka, f = _as_columns(
        clearance_l_per_h, volume_l, ka_per_h, bioavailability)
    dt = np.asarray(dt_h, dtype=float)
    ke = cl / v
    given = dt >= 0.0
    t = np.where(given, dt, 0.0)
    gap = ka - ke
    degenerate = np.abs(gap) <= _RATE_DEGENERACY_RTOL * ka
    # Where degenerate, substitute a safe denominator; the branch result
    # is discarded by the final where().
    safe_gap = np.where(degenerate, 1.0, gap)
    generic = (f * ka / (v * safe_gap)
               * (np.exp(-ke * t) - np.exp(-ka * t)))
    limit = f * ka * t * np.exp(-ka * t) / v
    return np.where(given, np.where(degenerate, limit, generic), 0.0)


def one_compartment_infusion_batch(dt_h: np.ndarray | float,
                                   duration_h: float,
                                   clearance_l_per_h: np.ndarray | float,
                                   volume_l: np.ndarray | float,
                                   ) -> np.ndarray:
    """Unit-dose response of a constant-rate infusion over ``duration_h``.

    During the infusion the level rises as ``(1 - exp(-ke dt)) / (CL T)``
    and decays mono-exponentially after it stops; the expression below
    covers both phases through ``tau = min(dt, T)``:

    ``c(dt) = (1 - exp(-ke tau)) exp(-ke (dt - tau)) / (CL T)``.

    Args:
        dt_h: times since the start of the infusion [h].
        duration_h: infusion duration T [h], > 0.
        clearance_l_per_h: per-patient clearance [L/h].
        volume_l: per-patient distribution volume [L].

    Returns:
        Concentration per mol of total infused dose [1/L].
    """
    if duration_h <= 0:
        raise ValueError("infusion duration must be > 0")
    cl, v = _as_columns(clearance_l_per_h, volume_l)
    dt = np.asarray(dt_h, dtype=float)
    ke = cl / v
    given = dt >= 0.0
    t = np.where(given, dt, 0.0)
    tau = np.minimum(t, duration_h)
    response = ((1.0 - np.exp(-ke * tau)) * np.exp(-ke * (t - tau))
                / (cl * duration_h))
    return np.where(given, response, 0.0)


def _two_compartment_exponents(clearance_l_per_h, volume_central_l,
                               intercompartmental_l_per_h, volume_peripheral_l):
    """Hybrid rate constants and bolus coefficients of the 2-cpt model.

    Returns ``(alpha, beta, coeff_alpha, coeff_beta)`` where the unit
    IV-bolus response is ``(coeff_a exp(-alpha t) + coeff_b exp(-beta t))
    / V1`` and ``alpha > beta > 0``.
    """
    cl, v1, q, v2 = _as_columns(clearance_l_per_h, volume_central_l,
                                intercompartmental_l_per_h,
                                volume_peripheral_l)
    k10 = cl / v1
    k12 = q / v1
    k21 = q / v2
    total = k10 + k12 + k21
    # Discriminant is (k10+k12-k21)^2 + 4 k12 k21 > 0: alpha != beta
    # always, no degenerate branch needed.
    root = np.sqrt(total * total - 4.0 * k10 * k21)
    alpha = 0.5 * (total + root)
    beta = 0.5 * (total - root)
    coeff_alpha = (alpha - k21) / (alpha - beta)
    coeff_beta = (k21 - beta) / (alpha - beta)
    return alpha, beta, coeff_alpha, coeff_beta


def two_compartment_bolus_batch(dt_h: np.ndarray | float,
                                clearance_l_per_h: np.ndarray | float,
                                volume_central_l: np.ndarray | float,
                                intercompartmental_l_per_h: np.ndarray | float,
                                volume_peripheral_l: np.ndarray | float,
                                ) -> np.ndarray:
    """Unit IV-bolus response of a two-compartment model.

    The classic bi-exponential disposition,

    ``c(dt) = (A exp(-alpha dt) + B exp(-beta dt)) / V1``,

    with hybrid constants derived from ``(CL, V1, Q, V2)`` micro-rates.

    Args:
        dt_h: times since the dose [h].
        clearance_l_per_h: elimination clearance from the central
            compartment [L/h].
        volume_central_l: central (sampled) volume V1 [L].
        intercompartmental_l_per_h: distribution clearance Q [L/h].
        volume_peripheral_l: peripheral volume V2 [L].

    Returns:
        Concentration per mol of dose [1/L].
    """
    v1, = _as_columns(volume_central_l)
    alpha, beta, a, b = _two_compartment_exponents(
        clearance_l_per_h, volume_central_l,
        intercompartmental_l_per_h, volume_peripheral_l)
    dt = np.asarray(dt_h, dtype=float)
    given = dt >= 0.0
    t = np.where(given, dt, 0.0)
    response = (a * np.exp(-alpha * t) + b * np.exp(-beta * t)) / v1
    return np.where(given, response, 0.0)


def two_compartment_oral_batch(dt_h: np.ndarray | float,
                               clearance_l_per_h: np.ndarray | float,
                               volume_central_l: np.ndarray | float,
                               intercompartmental_l_per_h: np.ndarray | float,
                               volume_peripheral_l: np.ndarray | float,
                               ka_per_h: np.ndarray | float,
                               bioavailability: np.ndarray | float = 1.0,
                               ) -> np.ndarray:
    """Unit oral-dose response of a two-compartment model.

    Tri-exponential: the bi-exponential disposition convolved with
    first-order absorption,

    ``c(dt) = F ka / V1 * sum_i C_i exp(-lambda_i dt)``

    over ``lambda_i in {alpha, beta, ka}`` with the standard partial-
    fraction coefficients.  ``ka`` colliding with ``alpha`` or ``beta``
    is resolved by nudging ``ka`` one part in 1e9 — far below any
    physiological identifiability and numerically stable.

    Args:
        dt_h: times since the dose [h].
        clearance_l_per_h: elimination clearance [L/h].
        volume_central_l: central volume V1 [L].
        intercompartmental_l_per_h: distribution clearance Q [L/h].
        volume_peripheral_l: peripheral volume V2 [L].
        ka_per_h: first-order absorption rate [1/h].
        bioavailability: absorbed fraction F in (0, 1].

    Returns:
        Concentration per mol of dose [1/L].
    """
    cl, v1, q, v2, ka, f = _as_columns(
        clearance_l_per_h, volume_central_l, intercompartmental_l_per_h,
        volume_peripheral_l, ka_per_h, bioavailability)
    alpha, beta, _, _ = _two_compartment_exponents(cl, v1, q, v2)
    k21 = q / v2
    # De-degenerate ka against both hybrid exponents.
    for lam in (alpha, beta):
        collision = np.abs(ka - lam) <= _RATE_DEGENERACY_RTOL * lam
        ka = np.where(collision, ka * (1.0 + 1e-9), ka)
    dt = np.asarray(dt_h, dtype=float)
    given = dt >= 0.0
    t = np.where(given, dt, 0.0)
    c_alpha = (k21 - alpha) / ((ka - alpha) * (beta - alpha))
    c_beta = (k21 - beta) / ((ka - beta) * (alpha - beta))
    c_ka = (k21 - ka) / ((alpha - ka) * (beta - ka))
    response = (f * ka / v1) * (c_alpha * np.exp(-alpha * t)
                                + c_beta * np.exp(-beta * t)
                                + c_ka * np.exp(-ka * t))
    return np.where(given, response, 0.0)


def two_compartment_infusion_batch(dt_h: np.ndarray | float,
                                   duration_h: float,
                                   clearance_l_per_h: np.ndarray | float,
                                   volume_central_l: np.ndarray | float,
                                   intercompartmental_l_per_h:
                                   np.ndarray | float,
                                   volume_peripheral_l: np.ndarray | float,
                                   ) -> np.ndarray:
    """Unit-dose constant-rate infusion response, two compartments.

    The bolus impulse response integrated over the infusion window:

    ``c(dt) = R/V1 sum_i C_i/lambda_i (1 - exp(-lambda_i tau))
    exp(-lambda_i (dt - tau))`` with ``tau = min(dt, T)`` and
    ``R = 1/T`` per unit dose.

    Args:
        dt_h: times since the start of the infusion [h].
        duration_h: infusion duration T [h], > 0.
        clearance_l_per_h: elimination clearance [L/h].
        volume_central_l: central volume V1 [L].
        intercompartmental_l_per_h: distribution clearance Q [L/h].
        volume_peripheral_l: peripheral volume V2 [L].

    Returns:
        Concentration per mol of total infused dose [1/L].
    """
    if duration_h <= 0:
        raise ValueError("infusion duration must be > 0")
    v1, = _as_columns(volume_central_l)
    alpha, beta, a, b = _two_compartment_exponents(
        clearance_l_per_h, volume_central_l,
        intercompartmental_l_per_h, volume_peripheral_l)
    dt = np.asarray(dt_h, dtype=float)
    given = dt >= 0.0
    t = np.where(given, dt, 0.0)
    tau = np.minimum(t, duration_h)
    rate = 1.0 / duration_h
    response = (rate / v1) * (
        (a / alpha) * (1.0 - np.exp(-alpha * tau))
        * np.exp(-alpha * (t - tau))
        + (b / beta) * (1.0 - np.exp(-beta * tau))
        * np.exp(-beta * (t - tau)))
    return np.where(given, response, 0.0)


@dataclass(frozen=True)
class PKParams:
    """Per-patient PK parameter arrays, the batch-kernel currency.

    One- or two-compartment depending on whether the distribution pair
    ``(intercompartmental_l_per_h, volume_peripheral_l)`` is present.
    Produced by :meth:`repro.pk.population.PatientCohort.params` and
    consumed by the therapy engine and :class:`repro.pk.dosing.DoseSchedule`.

    Attributes:
        clearance_l_per_h: elimination clearance per patient [L/h],
            shape ``(n_patients,)``.
        volume_l: central distribution volume per patient [L].
        ka_per_h: first-order absorption rate per patient [1/h].
        bioavailability: absorbed oral fraction per patient in (0, 1].
        intercompartmental_l_per_h: distribution clearance Q [L/h]
            (``None`` selects the one-compartment kernels).
        volume_peripheral_l: peripheral volume V2 [L] (paired with Q).
    """

    clearance_l_per_h: np.ndarray
    volume_l: np.ndarray
    ka_per_h: np.ndarray
    bioavailability: np.ndarray
    intercompartmental_l_per_h: np.ndarray | None = None
    volume_peripheral_l: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("clearance_l_per_h", "volume_l", "ka_per_h",
                     "bioavailability"):
            object.__setattr__(
                self, name, np.atleast_1d(
                    np.asarray(getattr(self, name), dtype=float)))
        if (self.intercompartmental_l_per_h is None) != (
                self.volume_peripheral_l is None):
            raise ValueError(
                "two-compartment parameters (Q, V2) must be given together")
        if self.intercompartmental_l_per_h is not None:
            object.__setattr__(
                self, "intercompartmental_l_per_h", np.atleast_1d(np.asarray(
                    self.intercompartmental_l_per_h, dtype=float)))
            object.__setattr__(
                self, "volume_peripheral_l", np.atleast_1d(np.asarray(
                    self.volume_peripheral_l, dtype=float)))
        if np.any(self.clearance_l_per_h <= 0) or np.any(self.volume_l <= 0):
            raise ValueError("clearance and volume must be > 0")
        if np.any(self.ka_per_h <= 0):
            raise ValueError("absorption rate must be > 0")
        if np.any((self.bioavailability <= 0)
                  | (self.bioavailability > 1.0)):
            raise ValueError("bioavailability must be in (0, 1]")
        if self.two_compartment and (
                np.any(self.intercompartmental_l_per_h <= 0)
                or np.any(self.volume_peripheral_l <= 0)):
            raise ValueError("Q and V2 must be > 0")

    @property
    def n_patients(self) -> int:
        """Number of patients the parameter arrays describe."""
        return int(self.clearance_l_per_h.shape[0])

    @property
    def two_compartment(self) -> bool:
        """True when the distribution pair (Q, V2) is present."""
        return self.intercompartmental_l_per_h is not None

    @property
    def elimination_rate_per_h(self) -> np.ndarray:
        """Terminal elimination micro-rate ``CL/V`` per patient [1/h]."""
        return self.clearance_l_per_h / self.volume_l

    def unit_response(self, dt_h: np.ndarray | float,
                      route: Route = Route.ORAL,
                      duration_h: float = 0.0) -> np.ndarray:
        """Concentration per mol of dose at times ``dt_h`` after dosing.

        Dispatches to the matching batch kernel (one- vs two-compartment
        by parameter presence, route by ``route``).  ``dt_h`` broadcasts
        against the ``(n_patients,)`` parameter axis, so passing a
        ``(n_times,)`` vector returns ``(n_patients, n_times)``.

        Args:
            dt_h: times since administration [h].
            route: administration route.
            duration_h: infusion duration [h] (INFUSION route only).

        Returns:
            Unit-dose concentrations [1/L].
        """
        if route is Route.INFUSION:
            if self.two_compartment:
                return two_compartment_infusion_batch(
                    dt_h, duration_h, self.clearance_l_per_h,
                    self.volume_l, self.intercompartmental_l_per_h,
                    self.volume_peripheral_l)
            return one_compartment_infusion_batch(
                dt_h, duration_h, self.clearance_l_per_h, self.volume_l)
        if route is Route.ORAL:
            if self.two_compartment:
                return two_compartment_oral_batch(
                    dt_h, self.clearance_l_per_h, self.volume_l,
                    self.intercompartmental_l_per_h,
                    self.volume_peripheral_l, self.ka_per_h,
                    self.bioavailability)
            return one_compartment_oral_batch(
                dt_h, self.clearance_l_per_h, self.volume_l,
                self.ka_per_h, self.bioavailability)
        if self.two_compartment:
            return two_compartment_bolus_batch(
                dt_h, self.clearance_l_per_h, self.volume_l,
                self.intercompartmental_l_per_h, self.volume_peripheral_l)
        return one_compartment_bolus_batch(
            dt_h, self.clearance_l_per_h, self.volume_l)

    def patient(self, index: int) -> "PKParams":
        """Single-patient slice (still array-shaped, length 1)."""
        sel = slice(index, index + 1)
        return PKParams(
            clearance_l_per_h=self.clearance_l_per_h[sel],
            volume_l=self.volume_l[sel],
            ka_per_h=self.ka_per_h[sel],
            bioavailability=self.bioavailability[sel],
            intercompartmental_l_per_h=(
                self.intercompartmental_l_per_h[sel]
                if self.two_compartment else None),
            volume_peripheral_l=(
                self.volume_peripheral_l[sel]
                if self.two_compartment else None),
        )


@dataclass(frozen=True)
class OneCompartmentPK:
    """One patient's one-compartment model (scalar convenience wrapper).

    Thin scalar facade over the batch kernels, mirroring the library
    convention that scalar APIs wrap the array implementations.

    Attributes:
        clearance_l_per_h: elimination clearance [L/h].
        volume_l: distribution volume [L].
        ka_per_h: first-order absorption rate [1/h].
        bioavailability: absorbed oral fraction in (0, 1].
    """

    clearance_l_per_h: float
    volume_l: float
    ka_per_h: float = 1.0
    bioavailability: float = 1.0

    def __post_init__(self) -> None:
        self.params()  # delegate validation

    def params(self) -> PKParams:
        """The equivalent length-1 :class:`PKParams`."""
        return PKParams(
            clearance_l_per_h=np.array([self.clearance_l_per_h]),
            volume_l=np.array([self.volume_l]),
            ka_per_h=np.array([self.ka_per_h]),
            bioavailability=np.array([self.bioavailability]))

    @property
    def elimination_rate_per_h(self) -> float:
        """Elimination micro-rate ``ke = CL/V`` [1/h]."""
        return self.clearance_l_per_h / self.volume_l

    @property
    def half_life_h(self) -> float:
        """Terminal half-life ``ln 2 / ke`` [h]."""
        return float(np.log(2.0) / self.elimination_rate_per_h)

    def concentration(self, dt_h: np.ndarray | float, dose_mol: float,
                      route: Route = Route.ORAL,
                      duration_h: float = 0.0) -> np.ndarray | float:
        """Concentration [mol/L] at ``dt_h`` after one dose.

        Args:
            dt_h: times since administration [h], scalar or array.
            dose_mol: administered dose [mol].
            route: administration route.
            duration_h: infusion duration [h] (INFUSION route only).

        Returns:
            Concentrations shaped like ``dt_h`` (scalar in, scalar out).
        """
        response = dose_mol * self.params().unit_response(
            np.atleast_1d(np.asarray(dt_h, dtype=float)),
            route, duration_h)[0]
        if np.isscalar(dt_h):
            return float(response[0])
        return response
