"""Energy budget of the self-contained biosensing node.

Completes the section 1 block-diagram argument with the quantity a
wearable/implantable design lives or dies by: battery life.  The model
combines per-measurement energy (settle + dwell on each channel through
the shared chain) with radio transmission energy per report and the
standby floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.composition import PlatformDesign

#: Energy density of a small lithium primary cell [J per mAh at 3 V].
_JOULE_PER_MAH = 3.0 * 3.6


@dataclass(frozen=True)
class EnergyBudget:
    """Duty-cycled energy model of a biosensing node.

    Attributes:
        design: the composed platform (supplies active power).
        standby_power_mw: sleep-mode power floor.
        measurement_duration_s: active time per full panel measurement.
        radio_energy_per_report_mj: energy to transmit one report [mJ].
    """

    design: PlatformDesign
    standby_power_mw: float = 0.05
    measurement_duration_s: float = 60.0
    radio_energy_per_report_mj: float = 15.0

    def __post_init__(self) -> None:
        if self.standby_power_mw < 0:
            raise ValueError("standby power must be >= 0")
        if self.measurement_duration_s <= 0:
            raise ValueError("measurement duration must be > 0")
        if self.radio_energy_per_report_mj < 0:
            raise ValueError("radio energy must be >= 0")

    def energy_per_measurement_mj(self) -> float:
        """Energy [mJ] of one full panel measurement plus its report."""
        active_mj = self.design.total_power_mw() * self.measurement_duration_s
        return active_mj + self.radio_energy_per_report_mj

    def average_power_mw(self, measurements_per_hour: float) -> float:
        """Duty-cycled average power [mW]."""
        if measurements_per_hour < 0:
            raise ValueError("measurement rate must be >= 0")
        per_hour_mj = (self.energy_per_measurement_mj()
                       * measurements_per_hour)
        return self.standby_power_mw + per_hour_mj / 3600.0

    def battery_life_days(self,
                          battery_mah: float,
                          measurements_per_hour: float) -> float:
        """Runtime [days] on ``battery_mah`` at the given duty cycle."""
        if battery_mah <= 0:
            raise ValueError("battery capacity must be > 0")
        energy_j = battery_mah * _JOULE_PER_MAH
        power_w = self.average_power_mw(measurements_per_hour) * 1e-3
        return energy_j / power_w / 86400.0
