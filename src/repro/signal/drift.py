"""Baseline drift: the stochastic wander kernel.

Long-term monitoring (the paper's chronic-patient scenario) accumulates
baseline drift from reference-electrode wander, enzyme decay and electrode
fouling.  The slow *random* component of the reference wander is modeled
as an Ornstein-Uhlenbeck (OU) process, advanced by a batch kernel over
``(n_channels, n_samples)`` arrays: what :mod:`repro.engine.monitor`
consumes while streaming a cohort through wear-time.

The kernel honors the library's reproducibility contract: it
only draws from explicitly passed generators (one per channel) or from
the shared seedable stream of :mod:`repro.rng` — never from fresh OS
entropy — so a run seeded via :func:`repro.rng.set_global_seed` replays
bit-for-bit.  Draws are consumed strictly sequentially per channel, which
makes chunked streaming invariant to chunk size: advancing a channel in
one 10000-sample call or in ten 1000-sample calls produces the same
trajectory.

The OU recursion itself is a one-pole IIR filter, so it runs as one
:func:`scipy.signal.lfilter` pass per distinct correlation time (a single
pass for a uniform cohort) instead of a Python loop over samples.  Its
constants live in :class:`OUDynamics`, which a streaming engine prepares
once per plan; :func:`ou_process_batch` prepares them per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from repro.rng import get_rng, standard_normal_rows


@dataclass(frozen=True)
class OUDynamics:
    """The per-channel constants of :func:`ou_process_batch`, checked once.

    A streaming engine prepares them when it builds its carry state and
    advances every chunk through :meth:`advance`, so a small chunk pays
    for its samples, not for re-deriving the coefficients.

    Attributes:
        a: AR(1) coefficients ``exp(-dt/tau)``, ``(n_channels,)``.
        innovation_scale: ``sigma * sqrt(1 - a^2)``, ``(n_channels,)``.
        groups: ``(a, rows)`` per distinct coefficient; a uniform cohort
            is one group over ``slice(None)``.
    """

    a: np.ndarray
    innovation_scale: np.ndarray
    groups: tuple

    @classmethod
    def prepare(cls, dt_s: float, tau_s: "np.ndarray | float",
                sigma: "np.ndarray | float",
                n_channels: int) -> "OUDynamics":
        """Check the parameters and form the coefficients.

        Args:
            dt_s: sample period [s].
            tau_s / sigma: as in :func:`ou_process_batch` (scalars
                broadcast to ``n_channels``).
        """
        if dt_s <= 0:
            raise ValueError("sample period must be > 0")
        tau = np.broadcast_to(np.asarray(tau_s, dtype=float), (n_channels,))
        sig = np.broadcast_to(np.asarray(sigma, dtype=float), (n_channels,))
        if not np.all(tau > 0):
            raise ValueError("correlation time must be > 0")
        if np.any(sig < 0):
            raise ValueError("sigma must be >= 0")
        a = np.exp(-dt_s / tau)
        coefficients = np.unique(a)
        groups = (((coefficients[0], slice(None)),) if coefficients.size == 1
                  else tuple((c, a == c) for c in coefficients))
        return cls(a, sig * np.sqrt(1.0 - a ** 2), groups)

    def advance(self, x0: np.ndarray,
                shocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run the recursion from ``x0`` over ``(n_channels, n)`` shocks.

        Returns ``(values, state)`` as :func:`ou_process_batch` does.
        """
        drive = self.innovation_scale[:, None] * shocks
        zi = (self.a * x0)[:, None]
        if len(self.groups) == 1:
            values = lfilter([1.0], [1.0, -self.groups[0][0]], drive,
                             axis=1, zi=zi)[0]
        else:
            values = np.empty_like(drive)
            for coefficient, rows in self.groups:
                values[rows] = lfilter([1.0], [1.0, -coefficient],
                                       drive[rows], axis=1, zi=zi[rows])[0]
        return values, values[:, -1].copy()


def ou_process_batch(n_samples: int,
                     dt_s: float,
                     tau_s: np.ndarray | float,
                     sigma: np.ndarray | float,
                     x0: np.ndarray,
                     rngs: "list[np.random.Generator] | None" = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Advance per-channel Ornstein-Uhlenbeck processes by ``n_samples``.

    The shared stochastic kernel of the streaming monitor: baseline
    wander *and* the random component of physiological concentration
    trajectories are both mean-reverting noise,

    ``x[k+1] = a * x[k] + sigma * sqrt(1 - a^2) * z[k]``,  ``a = exp(-dt/tau)``

    which has stationary standard deviation ``sigma`` and correlation
    time ``tau``.  The recursion is exact for any step size (no Euler
    error), so chunked streaming reproduces a single long call exactly
    as long as ``x0`` carries the state across chunk boundaries and each
    channel keeps its own generator.

    The recursion runs as one ``lfilter([1], [1, -a], u, zi=a * x0)``
    pass over the drive ``u = sigma * sqrt(1 - a^2) * z`` for each
    distinct ``a`` among the channels.  That is bit-identical to the
    per-sample loop ``x = a * x + u[k]``: the transposed direct-form
    step of lfilter computes ``u[k] + (0 * u[k-1] + a * x[k-1])``, and
    ``a * x[k-1]`` is rounded once either way, so both forms produce the
    same IEEE sums.

    Args:
        n_samples: samples to generate per channel.
        dt_s: sample period [s].
        tau_s: correlation time per channel [s] (scalar broadcasts);
            ``inf`` turns the channel into a frozen offset.
        sigma: stationary standard deviation per channel (scalar
            broadcasts); 0 disables the noise.
        x0: state entering the chunk, shape ``(n_channels,)`` — the last
            sample of the previous chunk, or the draw-free initial value.
        rngs: one generator per channel; ``None`` draws every channel
            from the shared seedable stream (:func:`repro.rng.get_rng`),
            which is reproducible under ``set_global_seed`` but not
            chunk-invariant (use per-channel generators for streaming).

    Returns:
        ``(values, state)``: the ``(n_channels, n_samples)`` process
        values and the ``(n_channels,)`` state to pass as ``x0`` of the
        next chunk (``values[:, -1]``, copied).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1:
        raise ValueError("x0 must be one state value per channel")
    n_channels = x0.size
    if n_samples < 1:
        raise ValueError("need at least one sample")
    dynamics = OUDynamics.prepare(dt_s, tau_s, sigma, n_channels)
    if rngs is None:
        shocks = get_rng(None).standard_normal((n_channels, n_samples))
    elif len(rngs) != n_channels:
        raise ValueError(
            f"need one generator per channel: {len(rngs)} != {n_channels}")
    else:
        shocks = standard_normal_rows(rngs, n_samples)
    return dynamics.advance(x0, shocks)
