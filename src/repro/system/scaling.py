"""Heterogeneous technology-scaling model.

Paper section 1: "Scaling trends for the analog circuit, the digital unit,
and the biosensor itself are different, and so heterogeneous technologies
may be required [17]."  Digital logic shrinks quadratically with the node;
analog shrinks weakly (matching, passives, voltage headroom); the sensor
does not shrink at all (its area is chemistry).  These functions quantify
when a single-node SoC loses to a heterogeneous (multi-die / 3-D) partition.
"""

from __future__ import annotations

from repro.system.blocks import REFERENCE_NODE_NM, SystemBlock

#: Candidate technology nodes [nm].
AVAILABLE_NODES_NM: tuple[float, ...] = (350.0, 180.0, 130.0, 90.0, 65.0, 40.0)

#: Wafer cost per mm^2 by node [USD] — rises steeply toward advanced nodes.
_COST_PER_MM2: dict[float, float] = {
    350.0: 0.05,
    180.0: 0.08,
    130.0: 0.12,
    90.0: 0.20,
    65.0: 0.35,
    40.0: 0.60,
}


def scaled_area_mm2(block: SystemBlock, node_nm: float) -> float:
    """Block area [mm^2] at ``node_nm``.

    ``area = area_ref * (node/ref)^exponent`` — exponent 2 for digital,
    ~0.6 for analog, 0 for the sensor.
    """
    if node_nm <= 0:
        raise ValueError(f"node must be > 0, got {node_nm}")
    return block.area_mm2 * (node_nm / REFERENCE_NODE_NM) ** block.scaling_exponent


def silicon_cost_usd(area_mm2: float, node_nm: float) -> float:
    """Die cost [USD] of ``area_mm2`` at ``node_nm``."""
    if area_mm2 < 0:
        raise ValueError("area must be >= 0")
    try:
        per_mm2 = _COST_PER_MM2[node_nm]
    except KeyError:
        raise KeyError(
            f"no cost data for node {node_nm}; "
            f"available: {sorted(_COST_PER_MM2)}") from None
    return area_mm2 * per_mm2


def best_node_for_block(block: SystemBlock) -> float:
    """Node [nm] minimizing the silicon cost of one block.

    Digital blocks migrate to advanced nodes (area wins); analog and
    sensor blocks stay on mature nodes (cost/mm^2 wins) — the quantitative
    form of the heterogeneity argument.
    """
    return min(
        AVAILABLE_NODES_NM,
        key=lambda node: silicon_cost_usd(scaled_area_mm2(block, node), node))


def homogeneous_vs_heterogeneous(blocks: tuple[SystemBlock, ...],
                                 ) -> dict[str, float]:
    """Compare single-node SoC cost against per-block best-node partitions.

    Returns a dict with the best homogeneous node and cost, the
    heterogeneous cost (each block on its own optimal node), and the
    saving ratio.  A saving ratio > 1 reproduces the paper's claim that
    heterogeneous integration is the right style for biosensing systems.
    """
    if not blocks:
        raise ValueError("need at least one block")

    def homogeneous_cost(node: float) -> float:
        return sum(silicon_cost_usd(scaled_area_mm2(b, node), node)
                   for b in blocks)

    best_homogeneous_node = min(AVAILABLE_NODES_NM, key=homogeneous_cost)
    homogeneous = homogeneous_cost(best_homogeneous_node)
    heterogeneous = sum(
        silicon_cost_usd(scaled_area_mm2(b, best_node_for_block(b)),
                         best_node_for_block(b))
        for b in blocks)
    return {
        "homogeneous_node_nm": best_homogeneous_node,
        "homogeneous_cost_usd": homogeneous,
        "heterogeneous_cost_usd": heterogeneous,
        "saving_ratio": homogeneous / heterogeneous,
    }
