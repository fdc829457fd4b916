"""One-dimensional diffusion engines for electrode simulations.

Two engines are provided:

* :class:`DiffusionGrid1D` — a single-species Crank-Nicolson solver with
  Dirichlet or no-flux boundaries.  It validates against the Cottrell
  equation and is reused for enzyme-layer transport studies.
* :class:`ElectrodeDiffusionSystem` — the classic explicit two-species
  (O/R) simulator with a Butler-Volmer surface boundary, the workhorse
  behind the cyclic-voltammetry simulator.  In the fast-kinetics limit it
  reproduces the Randles-Sevcik peak current within a few percent (tested).

Both engines work in SI units (metres, seconds, mol/m^3) internally and
expose molar (mol/L) concentrations at their API boundary, consistent with
:mod:`repro.units`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_banded

from repro.constants import FARADAY
from repro.chem.butler_volmer import rate_constants
from repro.chem.species import RedoxCouple

_MIN_NODES = 12


class DiffusionGrid1D:
    """Crank-Nicolson solver for d(C)/dt = D d2C/dx2 on [0, L].

    Node 0 is the electrode surface; node ``nx - 1`` is the bulk end.

    Args:
        diffusion_m2_s: diffusion coefficient D [m^2/s].
        dx_m: grid spacing [m].
        n_nodes: number of grid nodes (>= 12).
        dt_s: time step [s].
        bulk_concentration_molar: initial (and right-Dirichlet) value [mol/L].
        left_bc: ``"dirichlet"`` (fixed surface value) or ``"noflux"``.
        left_value_molar: surface concentration for a Dirichlet left BC.
        right_bc: ``"dirichlet"`` (bulk reservoir) or ``"noflux"`` (closed).
    """

    def __init__(self,
                 diffusion_m2_s: float,
                 dx_m: float,
                 n_nodes: int,
                 dt_s: float,
                 bulk_concentration_molar: float,
                 left_bc: str = "dirichlet",
                 left_value_molar: float = 0.0,
                 right_bc: str = "dirichlet") -> None:
        if diffusion_m2_s <= 0:
            raise ValueError(f"diffusion must be > 0, got {diffusion_m2_s}")
        if dx_m <= 0 or dt_s <= 0:
            raise ValueError("dx and dt must be > 0")
        if n_nodes < _MIN_NODES:
            raise ValueError(f"need at least {_MIN_NODES} nodes, got {n_nodes}")
        if left_bc not in ("dirichlet", "noflux"):
            raise ValueError(f"unknown left_bc {left_bc!r}")
        if right_bc not in ("dirichlet", "noflux"):
            raise ValueError(f"unknown right_bc {right_bc!r}")
        if bulk_concentration_molar < 0 or left_value_molar < 0:
            raise ValueError("concentrations must be >= 0")

        self.diffusion = diffusion_m2_s
        self.dx = dx_m
        self.dt = dt_s
        self.n_nodes = n_nodes
        self.left_bc = left_bc
        self.right_bc = right_bc
        self._left_value_si = left_value_molar * 1e3
        self._bulk_si = bulk_concentration_molar * 1e3
        self.time = 0.0
        self._conc = np.full(n_nodes, self._bulk_si, dtype=float)
        if left_bc == "dirichlet":
            self._conc[0] = self._left_value_si
        self._lhs_banded, self._rhs_matrix = self._build_operators()

    @classmethod
    def for_transient(cls,
                      diffusion_m2_s: float,
                      duration_s: float,
                      n_time_steps: int,
                      bulk_concentration_molar: float,
                      left_value_molar: float = 0.0,
                      nodes_per_layer: int = 40,
                      box_factor: float = 6.0) -> "DiffusionGrid1D":
        """Build a grid sized for a transient of ``duration_s`` seconds.

        The box extends ``box_factor`` diffusion lengths so the bulk boundary
        never feels the perturbation; ``nodes_per_layer`` nodes resolve one
        diffusion length at the end of the transient.
        """
        if duration_s <= 0 or n_time_steps < 1:
            raise ValueError("duration and steps must be positive")
        layer = math.sqrt(diffusion_m2_s * duration_s)
        dx = layer / nodes_per_layer
        n_nodes = max(_MIN_NODES, int(math.ceil(box_factor * layer / dx)) + 1)
        return cls(diffusion_m2_s, dx, n_nodes, duration_s / n_time_steps,
                   bulk_concentration_molar,
                   left_bc="dirichlet", left_value_molar=left_value_molar)

    def _build_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the Crank-Nicolson banded LHS and tridiagonal RHS."""
        n = self.n_nodes
        r = self.diffusion * self.dt / self.dx ** 2
        half = r / 2.0

        lower = np.full(n, -half)
        diag = np.full(n, 1.0 + r)
        upper = np.full(n, -half)
        rhs_lower = np.full(n, half)
        rhs_diag = np.full(n, 1.0 - r)
        rhs_upper = np.full(n, half)

        if self.left_bc == "dirichlet":
            diag[0], upper[0] = 1.0, 0.0
            rhs_diag[0], rhs_upper[0] = 1.0, 0.0
        else:  # no-flux: mirror node, C[-1] == C[1]
            diag[0] = 1.0 + r
            upper[0] = -r
            rhs_diag[0] = 1.0 - r
            rhs_upper[0] = r

        if self.right_bc == "dirichlet":
            diag[-1], lower[-1] = 1.0, 0.0
            rhs_diag[-1], rhs_lower[-1] = 1.0, 0.0
        else:
            diag[-1] = 1.0 + r
            lower[-1] = -r
            rhs_diag[-1] = 1.0 - r
            rhs_lower[-1] = r

        lhs_banded = np.zeros((3, n))
        lhs_banded[0, 1:] = upper[:-1]
        lhs_banded[1, :] = diag
        lhs_banded[2, :-1] = lower[1:]
        rhs_matrix = np.vstack([rhs_lower, rhs_diag, rhs_upper])
        return lhs_banded, rhs_matrix

    def step(self) -> None:
        """Advance the concentration field by one time step."""
        c = self._conc
        rhs_lower, rhs_diag, rhs_upper = self._rhs_matrix
        rhs = rhs_diag * c
        rhs[1:] += rhs_lower[1:] * c[:-1]
        rhs[:-1] += rhs_upper[:-1] * c[1:]
        self._conc = solve_banded((1, 1), self._lhs_banded, rhs)
        if self.left_bc == "dirichlet":
            self._conc[0] = self._left_value_si
        if self.right_bc == "dirichlet":
            self._conc[-1] = self._bulk_si
        self.time += self.dt

    def run(self, n_steps: int) -> np.ndarray:
        """Advance ``n_steps`` and return the surface flux after each [mol/(m^2 s)]."""
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        fluxes = np.empty(n_steps)
        for i in range(n_steps):
            self.step()
            fluxes[i] = self.surface_flux()
        return fluxes

    def surface_flux(self) -> float:
        """Return the flux into the electrode [mol/(m^2 s)].

        Second-order one-sided derivative at node 0:
        ``J = D (-3 C0 + 4 C1 - C2) / (2 dx)`` — positive when material
        flows toward the electrode (consumed at the surface).
        """
        c = self._conc
        gradient = (-3.0 * c[0] + 4.0 * c[1] - c[2]) / (2.0 * self.dx)
        return self.diffusion * gradient


class ElectrodeDiffusionSystem:
    """Two-species explicit diffusion with a Butler-Volmer electrode boundary.

    The classic electrochemical digital simulation (Feldberg scheme): both
    members of a redox couple diffuse in solution; at each time step the
    applied potential sets finite-rate surface kinetics which exchange O and
    R one-for-one and produce the faradaic current.

    Sign convention: anodic (oxidation, R -> O) current is positive.

    Args:
        couple: the redox couple being simulated.
        area_m2: electrode area [m^2].
        bulk_ox_molar / bulk_red_molar: bulk concentrations [mol/L].
        duration_s: total simulated time (sizes the box).
        n_time_steps: number of steps ``duration_s`` is divided into.
        stability_factor: explicit-scheme mesh ratio D dt/dx^2 (< 0.5).
        box_factor: box length in units of the final diffusion length.
    """

    def __init__(self,
                 couple: RedoxCouple,
                 area_m2: float,
                 bulk_ox_molar: float,
                 bulk_red_molar: float,
                 duration_s: float,
                 n_time_steps: int,
                 stability_factor: float = 0.4,
                 box_factor: float = 6.0) -> None:
        if area_m2 <= 0:
            raise ValueError(f"area must be > 0, got {area_m2}")
        if bulk_ox_molar < 0 or bulk_red_molar < 0:
            raise ValueError("bulk concentrations must be >= 0")
        if duration_s <= 0 or n_time_steps < 10:
            raise ValueError("need positive duration and >= 10 steps")
        if not 0.0 < stability_factor < 0.5:
            raise ValueError(
                f"stability_factor must be in (0, 0.5), got {stability_factor}")

        self.couple = couple
        self.area = area_m2
        self.dt = duration_s / n_time_steps
        d_max = max(couple.diffusion_ox, couple.diffusion_red)
        self.dx = math.sqrt(d_max * self.dt / stability_factor)
        box_length = box_factor * math.sqrt(d_max * duration_s)
        self.n_nodes = max(_MIN_NODES, int(math.ceil(box_length / self.dx)) + 1)
        self._lambda_ox = couple.diffusion_ox * self.dt / self.dx ** 2
        self._lambda_red = couple.diffusion_red * self.dt / self.dx ** 2
        self._c_ox = np.full(self.n_nodes, bulk_ox_molar * 1e3)
        self._c_red = np.full(self.n_nodes, bulk_red_molar * 1e3)
        self.time = 0.0

    def step(self, potential: float) -> float:
        """Advance one time step at ``potential`` [V]; return the current [A]."""
        c_ox, c_red = self._c_ox, self._c_red
        # Interior diffusion update (explicit FTCS).
        c_ox[1:-1] = c_ox[1:-1] + self._lambda_ox * (
            c_ox[2:] - 2.0 * c_ox[1:-1] + c_ox[:-2])
        c_red[1:-1] = c_red[1:-1] + self._lambda_red * (
            c_red[2:] - 2.0 * c_red[1:-1] + c_red[:-2])

        # Butler-Volmer surface boundary, linearized flux balance.
        kf, kb = rate_constants(
            potential, self.couple.formal_potential, self.couple.k0,
            self.couple.alpha, self.couple.n_electrons)
        d_ox, d_red = self.couple.diffusion_ox, self.couple.diffusion_red
        reduction_flux = ((kf * c_ox[1] - kb * c_red[1])
                          / (1.0 + kf * self.dx / d_ox + kb * self.dx / d_red))
        c_ox[0] = max(c_ox[1] - reduction_flux * self.dx / d_ox, 0.0)
        c_red[0] = max(c_red[1] + reduction_flux * self.dx / d_red, 0.0)

        self.time += self.dt
        # Anodic-positive convention: net reduction gives negative current.
        return -self.couple.n_electrons * FARADAY * self.area * reduction_flux

    def run(self, potentials: np.ndarray) -> np.ndarray:
        """Step through a potential waveform; return the current trace [A]."""
        potentials = np.asarray(potentials, dtype=float)
        currents = np.empty(potentials.size)
        for i, potential in enumerate(potentials):
            currents[i] = self.step(float(potential))
        return currents
