"""Non-recurring engineering (NRE) cost model.

"A platform-based design style ... reduces the non-recurring engineering
(NRE) costs of biosensing systems, thus enabling the introduction of new
approaches in the medical arena" (paper section 1).  The model compares a
full-custom flow (every product pays its full NRE) against a platform flow
(the shared platform is designed once; each derivative pays only the
per-product delta) and finds the product-count crossover.
"""

from __future__ import annotations

#: Mask-set cost by technology node [USD].
_MASK_COST: dict[float, float] = {
    350.0: 60_000.0,
    180.0: 120_000.0,
    130.0: 250_000.0,
    90.0: 600_000.0,
    65.0: 1_100_000.0,
    40.0: 2_200_000.0,
}

#: Design effort per block kind [engineer-months].
_DESIGN_EFFORT_MONTHS: dict[str, float] = {
    "sensor": 6.0,
    "analog front-end": 12.0,
    "adc": 9.0,
    "digital control": 8.0,
    "rf transceiver": 18.0,
    "power management": 6.0,
    "memory": 3.0,
}

#: Fully loaded engineer cost [USD/month].
_ENGINEER_COST_PER_MONTH = 20_000.0


def mask_set_cost_usd(node_nm: float) -> float:
    """Mask-set cost [USD] at ``node_nm``; KeyError lists known nodes."""
    try:
        return _MASK_COST[node_nm]
    except KeyError:
        raise KeyError(
            f"no mask cost for node {node_nm}; "
            f"available: {sorted(_MASK_COST)}") from None


def design_cost_usd(block_kinds: list[str],
                    reuse_discount: float = 0.0) -> float:
    """Design-effort cost [USD] for a list of block kinds.

    ``reuse_discount`` is the fraction of effort saved by reusing
    pre-verified platform blocks (0 = full custom, 0.8 = assemble mostly
    existing IP).
    """
    if not 0.0 <= reuse_discount < 1.0:
        raise ValueError(f"reuse discount must be in [0, 1), got {reuse_discount}")
    months = 0.0
    for kind in block_kinds:
        try:
            months += _DESIGN_EFFORT_MONTHS[kind]
        except KeyError:
            raise KeyError(
                f"no effort data for block kind {kind!r}; "
                f"available: {sorted(_DESIGN_EFFORT_MONTHS)}") from None
    return months * _ENGINEER_COST_PER_MONTH * (1.0 - reuse_discount)


def nre_cost_usd(block_kinds: list[str],
                 node_nm: float,
                 reuse_discount: float = 0.0) -> float:
    """Total NRE [USD]: design effort plus one mask set."""
    return design_cost_usd(block_kinds, reuse_discount) + mask_set_cost_usd(node_nm)


def platform_vs_custom_crossover(block_kinds: list[str],
                                 node_nm: float,
                                 platform_reuse_discount: float = 0.7,
                                 platform_setup_overhead: float = 1.5,
                                 ) -> dict[str, float]:
    """Find how many products make the platform flow cheaper overall.

    The platform pays ``platform_setup_overhead`` times one full NRE up
    front (generalizing the blocks costs extra), then each derivative costs
    the discounted NRE.  Full custom pays the full NRE per product.

    Returns the per-product costs and the crossover product count (the
    smallest N where the platform total is at or below the custom total).
    """
    if platform_setup_overhead < 1.0:
        raise ValueError("setup overhead must be >= 1")
    full = nre_cost_usd(block_kinds, node_nm, reuse_discount=0.0)
    derivative = nre_cost_usd(block_kinds, node_nm,
                              reuse_discount=platform_reuse_discount)
    setup = platform_setup_overhead * full

    crossover = None
    for n_products in range(1, 101):
        custom_total = full * n_products
        platform_total = setup + derivative * n_products
        if platform_total <= custom_total:
            crossover = n_products
            break
    if crossover is None:
        raise RuntimeError("no crossover within 100 products — check inputs")
    return {
        "full_custom_nre_usd": full,
        "platform_derivative_nre_usd": derivative,
        "platform_setup_usd": setup,
        "crossover_products": float(crossover),
    }
