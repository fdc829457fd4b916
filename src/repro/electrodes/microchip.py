"""Microfabricated multi-electrode chip (paper ref [3]).

The metabolite sensors run on a microfabricated platform: five Au working
electrodes of 0.25 mm^2 each, a shared Au counter and a Pt pseudo-reference.
Five independent working electrodes are what make the *multi-target*
platform possible — each can carry a different enzyme while sharing the
counter/reference pair and the readout chain (the modularity argument of the
paper's abstract).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.electrodes.cell import PT_PSEUDO, ReferenceElectrode, ThreeElectrodeCell
from repro.electrodes.geometry import ElectrodeGeometry
from repro.electrodes.materials import GOLD
from repro.units import square_metre_from_square_millimetre

#: Working-electrode area quoted in the paper: 0.25 mm^2.
MICROCHIP_WORKING_AREA_M2 = square_metre_from_square_millimetre(0.25)

#: Number of independent working electrodes on the chip.
MICROCHIP_CHANNELS = 5


@dataclass(frozen=True)
class MicrofabricatedChip:
    """Five-channel Au microelectrode chip with shared counter and reference.

    Attributes:
        working_area_m2: area of each working electrode.
        n_channels: number of independent working electrodes.
        counter_area_m2: shared Au counter-electrode area.
        reference: shared Pt pseudo-reference.
        solution_resistance_ohm: uncompensated resistance per channel.
    """

    working_area_m2: float = MICROCHIP_WORKING_AREA_M2
    n_channels: int = MICROCHIP_CHANNELS
    counter_area_m2: float = 8.0 * MICROCHIP_WORKING_AREA_M2
    reference: ReferenceElectrode = field(default=PT_PSEUDO)
    solution_resistance_ohm: float = 300.0

    def __post_init__(self) -> None:
        if self.working_area_m2 <= 0:
            raise ValueError("working area must be > 0")
        if self.n_channels < 1:
            raise ValueError(f"need >= 1 channel, got {self.n_channels}")
        if self.counter_area_m2 <= 0:
            raise ValueError("counter area must be > 0")

    def channel_cell(self, channel: int) -> ThreeElectrodeCell:
        """Return the three-electrode cell seen by ``channel`` (0-based).

        Each channel shares the counter and reference; the cell object is
        what the technique simulators consume.
        """
        if not 0 <= channel < self.n_channels:
            raise ValueError(
                f"channel must be in [0, {self.n_channels}), got {channel}")
        geometry = ElectrodeGeometry.from_area(self.working_area_m2)
        return ThreeElectrodeCell(
            name=f"microfabricated chip, channel {channel}",
            working_geometry=geometry,
            working_material=GOLD,
            counter_material=GOLD,
            counter_area_m2=self.counter_area_m2,
            reference=self.reference,
            solution_resistance_ohm=self.solution_resistance_ohm,
        )

    @property
    def total_sensing_area_m2(self) -> float:
        """Combined working area of all channels [m^2]."""
        return self.working_area_m2 * self.n_channels

    def sample_volume_estimate_l(self, height_m: float = 2e-3) -> float:
        """Estimate the sample volume [L] needed to cover the chip.

        A droplet of ``height_m`` over the active area — the 'requires small
        samples' advantage of miniaturization (paper section 1).  Counter
        and reference areas are included in the footprint.
        """
        if height_m <= 0:
            raise ValueError("height must be > 0")
        footprint = self.total_sensing_area_m2 * 4.0 + self.counter_area_m2
        return footprint * height_m * 1e3
