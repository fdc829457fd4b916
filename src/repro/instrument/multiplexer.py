"""Channel multiplexer: one readout chain shared by five electrodes.

The paper's modularity argument in hardware form: the expensive electrical
component (potentiostat + TIA + ADC) is shared, and an analog switch
matrix connects it to one working electrode at a time.  The model applies
the non-ideality that biases sequential multi-target measurement:
inter-channel leakage (crosstalk).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelMultiplexer:
    """Analog multiplexer in front of a shared acquisition chain.

    Attributes:
        n_channels: number of selectable working electrodes.
        off_isolation: fraction of a neighbouring channel's current that
            leaks into the selected one (crosstalk, << 1).
    """

    n_channels: int = 5
    off_isolation: float = 1e-4

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError("need >= 1 channel")
        if not 0.0 <= self.off_isolation < 1.0:
            raise ValueError("off isolation must be in [0, 1)")

    def validate_channel(self, channel: int) -> None:
        """Raise unless ``channel`` exists."""
        if not 0 <= channel < self.n_channels:
            raise ValueError(
                f"channel must be in [0, {self.n_channels}), got {channel}")

    def observed_current(self,
                         channel: int,
                         channel_currents_a: dict[int, float]) -> float:
        """Current [A] seen by the chain with ``channel`` selected.

        The selected channel passes fully; every other channel leaks its
        current scaled by the off-isolation.
        """
        self.validate_channel(channel)
        selected = channel_currents_a.get(channel, 0.0)
        leakage = sum(current for ch, current in channel_currents_a.items()
                      if ch != channel) * self.off_isolation
        return selected + leakage
