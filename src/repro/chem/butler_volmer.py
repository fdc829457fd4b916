"""Butler-Volmer interfacial electron-transfer kinetics.

The Butler-Volmer equation links the overpotential at an electrode to the
net faradaic current density.  It is the kinetic boundary condition of the
diffusion engine (:mod:`repro.chem.diffusion`) and the basis of the CNT
rate-enhancement model: multiplying ``k0`` shifts a sluggish reaction toward
the reversible limit, which is exactly the effect the paper attributes to
MWCNT electrode modification.
"""

from __future__ import annotations

import math

from repro.constants import STANDARD_TEMPERATURE, thermal_voltage


def rate_constants(potential: float,
                   formal_potential: float,
                   k0: float,
                   alpha: float,
                   n_electrons: int,
                   temperature: float = STANDARD_TEMPERATURE,
                   ) -> tuple[float, float]:
    """Return (k_forward, k_backward) [m/s] at ``potential``.

    Forward means reduction (O + n e- -> R):

    ``kf = k0 exp(-alpha   * nf * (E - E0'))``
    ``kb = k0 exp((1-alpha) * nf * (E - E0'))``

    with ``nf = nF/RT``.  Exponents are clamped to avoid overflow at extreme
    sweep vertices; at +-0.5 V overpotential the clamp never engages.
    """
    if k0 <= 0:
        raise ValueError(f"k0 must be > 0, got {k0}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    nf = n_electrons / thermal_voltage(temperature)
    overpotential = potential - formal_potential
    exp_f = max(min(-alpha * nf * overpotential, 500.0), -500.0)
    exp_b = max(min((1.0 - alpha) * nf * overpotential, 500.0), -500.0)
    return k0 * math.exp(exp_f), k0 * math.exp(exp_b)
