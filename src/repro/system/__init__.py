"""System-integration substrate (paper sections 1 and 2.5).

The DAC-audience half of the paper: biosensing systems need power,
transducer circuitry, control, and wireless links, but "the integration of
all units may not be a satisfactory solution" because analog, digital and
sensor blocks scale differently.  This package models the block library,
compositional design rules, heterogeneous technology scaling, the 3-D
stacked integration of Guiducci et al. [17], and the NRE-cost argument for
platform-based design.
"""

from repro.system.blocks import (
    BlockKind,
    SystemBlock,
    STANDARD_BLOCKS,
    block_by_name,
)
from repro.system.composition import (
    CompositionError,
    PlatformDesign,
    reference_biosensor_node,
)
from repro.system.scaling import (
    scaled_area_mm2,
    best_node_for_block,
    homogeneous_vs_heterogeneous,
)
from repro.system.stack3d import StackLayer, ThreeDStack, guiducci_stack
from repro.system.energy import EnergyBudget
from repro.system.nre import (
    mask_set_cost_usd,
    design_cost_usd,
    nre_cost_usd,
    platform_vs_custom_crossover,
)

__all__ = [
    "BlockKind",
    "SystemBlock",
    "STANDARD_BLOCKS",
    "block_by_name",
    "CompositionError",
    "PlatformDesign",
    "reference_biosensor_node",
    "scaled_area_mm2",
    "best_node_for_block",
    "homogeneous_vs_heterogeneous",
    "StackLayer",
    "ThreeDStack",
    "guiducci_stack",
    "EnergyBudget",
    "mask_set_cost_usd",
    "design_cost_usd",
    "nre_cost_usd",
    "platform_vs_custom_crossover",
]
