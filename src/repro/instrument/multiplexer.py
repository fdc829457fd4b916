"""Channel multiplexer: one readout chain shared by five electrodes.

The paper's modularity argument in hardware form: the expensive electrical
component (potentiostat + TIA + ADC) is shared, and an analog switch
matrix connects it to one working electrode at a time.  The model applies
the non-ideality that biases sequential multi-target measurement,
inter-channel leakage (crosstalk), and records the switch resistance,
charge injection and settling wait of the switch matrix.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelMultiplexer:
    """Analog multiplexer in front of a shared acquisition chain.

    Attributes:
        n_channels: number of selectable working electrodes.
        on_resistance_ohm: series resistance of a closed switch.
        charge_injection_c: charge injected into the electrode node at
            every switching event [C].
        off_isolation: fraction of a neighbouring channel's current that
            leaks into the selected one (crosstalk, << 1).
        settling_time_s: wait after switching before samples are valid.
    """

    n_channels: int = 5
    on_resistance_ohm: float = 50.0
    charge_injection_c: float = 1e-12
    off_isolation: float = 1e-4
    settling_time_s: float = 0.5

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError("need >= 1 channel")
        if self.on_resistance_ohm < 0:
            raise ValueError("on-resistance must be >= 0")
        if self.charge_injection_c < 0:
            raise ValueError("charge injection must be >= 0")
        if not 0.0 <= self.off_isolation < 1.0:
            raise ValueError("off isolation must be in [0, 1)")
        if self.settling_time_s < 0:
            raise ValueError("settling time must be >= 0")

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
