"""3-D stacked integration with through-silicon vias (paper section 2.5).

Guiducci et al. [17] propose "a 3-D integrated system with vertically
stacked layers and thru-silicon vias among the different layers ... a
disposable biolayer, which is not suitable for fully-implanted devices, but
can represent a step towards the development of permanent systems."  The
model checks geometric feasibility (TSV area budget, footprint match) and
exposes the disposable/permanent split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.system.blocks import SystemBlock
from repro.system.scaling import scaled_area_mm2


@dataclass(frozen=True)
class StackLayer:
    """One tier of the 3-D stack.

    Attributes:
        name: layer identity (e.g. ``"disposable biolayer"``).
        blocks: blocks living on this tier.
        technology_node_nm: node the tier is manufactured in.
        thickness_um: thinned-die thickness [um].
        disposable: True when the tier is replaced between uses.
        signals_down: signal count this tier must pass to the tier below.
    """

    name: str
    blocks: tuple[SystemBlock, ...]
    technology_node_nm: float
    thickness_um: float = 50.0
    disposable: bool = False
    signals_down: int = 0

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError(f"{self.name}: a layer needs at least one block")
        if self.technology_node_nm <= 0:
            raise ValueError(f"{self.name}: node must be > 0")
        if self.thickness_um <= 0:
            raise ValueError(f"{self.name}: thickness must be > 0")
        if self.signals_down < 0:
            raise ValueError(f"{self.name}: signal count must be >= 0")

    def active_area_mm2(self) -> float:
        """Block area of the tier at its own technology node [mm^2]."""
        return sum(scaled_area_mm2(block, self.technology_node_nm)
                   for block in self.blocks)


@dataclass(frozen=True)
class ThreeDStack:
    """A vertically stacked biosensing system.

    Attributes:
        layers: tiers ordered top (biolayer) to bottom.
        tsv_pitch_um: through-silicon-via pitch [um].
        tsv_diameter_um: via diameter [um].
        footprint_margin: allowed footprint overhead beyond the largest
            tier's active area (routing, seal ring).
    """

    layers: tuple[StackLayer, ...]
    tsv_pitch_um: float = 40.0
    tsv_diameter_um: float = 10.0
    footprint_margin: float = 1.3
    _footprint_mm2: float = field(init=False, default=0.0, repr=False)

    def __post_init__(self) -> None:
        if len(self.layers) < 2:
            raise ValueError("a 3-D stack needs at least two layers")
        if self.tsv_diameter_um >= self.tsv_pitch_um:
            raise ValueError("TSV diameter must be below the pitch")
        if self.footprint_margin < 1.0:
            raise ValueError("footprint margin must be >= 1")
        footprint = self.footprint_margin * max(
            layer.active_area_mm2() for layer in self.layers)
        object.__setattr__(self, "_footprint_mm2", footprint)

    @property
    def footprint_mm2(self) -> float:
        """Common tier footprint [mm^2]."""
        return self._footprint_mm2

    def total_tsvs(self) -> int:
        """Total vertical signals crossing tier boundaries."""
        return sum(layer.signals_down for layer in self.layers)

    def tsv_area_mm2(self) -> float:
        """Keep-out area consumed by all TSVs [mm^2].

        Each via blocks a pitch x pitch keep-out square.
        """
        keepout_um2 = self.tsv_pitch_um ** 2
        return self.total_tsvs() * keepout_um2 * 1e-6

    def is_feasible(self) -> bool:
        """True when every tier fits its blocks plus its TSV keep-out."""
        for layer in self.layers:
            used = layer.active_area_mm2() + self.tsv_area_mm2()
            if used > self.footprint_mm2:
                return False
        return True

    def total_thickness_um(self, bond_um: float = 10.0) -> float:
        """Stack thickness [um] with ``bond_um`` per bonding interface."""
        if bond_um < 0:
            raise ValueError("bond thickness must be >= 0")
        dies = sum(layer.thickness_um for layer in self.layers)
        return dies + bond_um * (len(self.layers) - 1)

    def disposable_layers(self) -> tuple[StackLayer, ...]:
        """Tiers replaced between uses (the biolayer)."""
        return tuple(layer for layer in self.layers if layer.disposable)

    def replacement_cost_fraction(self) -> float:
        """Area fraction thrown away per use.

        Low fractions are the economic point of the disposable-biolayer
        architecture: the expensive electronics persist.
        """
        disposable = sum(l.active_area_mm2() for l in self.disposable_layers())
        total = sum(l.active_area_mm2() for l in self.layers)
        return disposable / total


def guiducci_stack() -> ThreeDStack:
    """The reference 4-tier stack of Guiducci et al. [17].

    Disposable biolayer on top; readout, processing+power, and radio tiers
    permanent below, each in its natural technology.
    """
    from repro.system.blocks import block_by_name

    sensor = block_by_name("cnt electrode array")
    afe = block_by_name("potentiostat + tia front-end")
    adc = block_by_name("12-bit sar adc")
    control = block_by_name("control mcu + dsp")
    memory = block_by_name("calibration memory")
    radio = block_by_name("ble-class radio")
    power = block_by_name("power management unit")

    layers = (
        StackLayer("disposable biolayer", (sensor,), 350.0,
                   thickness_um=300.0, disposable=True, signals_down=12),
        StackLayer("analog readout tier", (afe, adc), 180.0,
                   thickness_um=50.0, signals_down=20),
        StackLayer("digital + power tier", (control, memory, power), 90.0,
                   thickness_um=50.0, signals_down=8),
        StackLayer("rf tier", (radio,), 130.0, thickness_um=50.0),
    )
    return ThreeDStack(layers=layers)


def tsv_parasitic_capacitance_ff(length_um: float = 50.0,
                                 diameter_um: float = 10.0,
                                 oxide_thickness_um: float = 0.5) -> float:
    """Coaxial-model TSV capacitance [fF].

    ``C = 2 pi eps_ox L / ln((r + t_ox)/r)`` — a few tens of fF for typical
    geometry, negligible against the biosensor signal bandwidths, which is
    why the 3-D route is electrically benign for this application.
    """
    if min(length_um, diameter_um, oxide_thickness_um) <= 0:
        raise ValueError("geometry parameters must be > 0")
    eps_ox = 3.9 * 8.854e-12
    radius = diameter_um / 2.0
    capacitance_f = (2.0 * math.pi * eps_ox * length_um * 1e-6
                     / math.log((radius + oxide_thickness_um) / radius))
    return capacitance_f * 1e15
