"""Multi-target biosensor platform.

The paper's system proposition: five working electrodes on one
microfabricated chip, each carrying a different enzyme, sharing counter,
reference and readout — "a platform for multiple target detection ...
modular and achieves a clear separation between the chemical and the
electrical components" (abstract).  The platform calibrates every channel,
then estimates all analyte concentrations from one sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.calibration import (
    CalibrationProtocol,
    CalibrationResult,
    default_protocol_for_range,
)
from repro.core.detection import estimate_concentration, measure_point
from repro.core.registry import SensorSpec, build_sensor
from repro.core.sensor import Biosensor
from repro.rng import get_rng
from repro.electrodes.microchip import MicrofabricatedChip
from repro.instrument.multiplexer import ChannelMultiplexer
from repro.units import molar_from_millimolar


@dataclass
class MultiTargetPlatform:
    """A chip hosting several single-analyte biosensor channels.

    Attributes:
        chip: the microfabricated electrode array.
        channels: channel index -> composed biosensor.
        calibrations: channel index -> calibration result (after
            :meth:`calibrate_batch`).
        multiplexer: optional shared-readout switch matrix; when present,
            panel measurements include inter-channel crosstalk and the
            scan timing accounts for settling between channels.
    """

    chip: MicrofabricatedChip = field(default_factory=MicrofabricatedChip)
    channels: dict[int, Biosensor] = field(default_factory=dict)
    calibrations: dict[int, CalibrationResult] = field(default_factory=dict)
    multiplexer: ChannelMultiplexer | None = None

    @classmethod
    def from_specs(cls, specs: list[SensorSpec]) -> "MultiTargetPlatform":
        """Build a platform hosting one channel per spec (chip order)."""
        chip = MicrofabricatedChip()
        if len(specs) > chip.n_channels:
            raise ValueError(
                f"chip has {chip.n_channels} channels, got {len(specs)} specs")
        platform = cls(chip=chip)
        for channel, spec in enumerate(specs):
            platform.add_channel(channel, build_sensor(spec))
        return platform

    def add_channel(self, channel: int, sensor: Biosensor) -> None:
        """Attach ``sensor`` to ``channel`` (must be free and on-chip)."""
        if not 0 <= channel < self.chip.n_channels:
            raise ValueError(
                f"channel must be in [0, {self.chip.n_channels}), got {channel}")
        if channel in self.channels:
            raise ValueError(f"channel {channel} already hosts a sensor")
        self.channels[channel] = sensor

    @property
    def analytes(self) -> dict[int, str]:
        """Channel -> analyte name mapping."""
        return {ch: sensor.analyte.name
                for ch, sensor in sorted(self.channels.items())}

    def _channel_protocols(self,
                           upper_molar_by_channel: dict[int, float] | None,
                           ) -> list[tuple[int, Biosensor, CalibrationProtocol]]:
        """Resolve the calibration protocol for every channel, in order."""
        resolved = []
        for channel, sensor in sorted(self.channels.items()):
            if upper_molar_by_channel and channel in upper_molar_by_channel:
                upper = upper_molar_by_channel[channel]
            else:
                upper = sensor.linear_range_upper_molar()
            resolved.append((channel, sensor,
                             default_protocol_for_range(upper)))
        return resolved

    def calibrate_batch(self,
                        seed: int | None = None,
                        upper_molar_by_channel: dict[int, float] | None = None,
                        ) -> dict[int, CalibrationResult]:
        """Calibrate every channel as one batched campaign (engine path).

        The whole panel — every channel's blanks, standards and
        replicates — evaluates through :func:`repro.engine.calibrate_panel`
        with deterministic per-cell randomness derived from ``seed``.
        Results are stored in :attr:`calibrations` and returned.
        """
        from repro.engine import calibrate_panel

        resolved = self._channel_protocols(upper_molar_by_channel)
        results = calibrate_panel(
            [sensor for __, sensor, __p in resolved],
            [protocol for __, __s, protocol in resolved], seed=seed)
        self.calibrations = {channel: result
                             for (channel, __, __p), result
                             in zip(resolved, results)}
        return self.calibrations

    def measure_sample(self,
                       concentrations_molar: dict[str, float],
                       rng: np.random.Generator | None = None,
                       ) -> dict[str, float]:
        """Estimate analyte concentrations [mol/L] in one sample.

        ``concentrations_molar`` maps analyte name -> true level; channels
        whose analyte is absent from the sample see zero.  Requires a prior
        :meth:`calibrate_batch`.
        """
        if not self.calibrations:
            raise RuntimeError("platform must be calibrated before measuring")
        rng = get_rng(rng)
        signals: dict[int, float] = {}
        for channel, sensor in sorted(self.channels.items()):
            true_level = concentrations_molar.get(sensor.analyte.name, 0.0)
            signals[channel] = measure_point(sensor, true_level, rng)
        if self.multiplexer is not None:
            signals = {channel: self.multiplexer.observed_current(
                channel, signals) for channel in signals}
        estimates: dict[str, float] = {}
        for channel, sensor in sorted(self.channels.items()):
            calibration = self.calibrations[channel]
            estimates[sensor.analyte.name] = estimate_concentration(
                signals[channel],
                calibration.slope_a_per_molar,
                calibration.intercept_a,
            )
        return estimates

    def monitor(self,
                timeline_hours: np.ndarray,
                concentration_profiles: dict[str, "np.ndarray"],
                rng: np.random.Generator | None = None,
                ) -> dict[str, np.ndarray]:
        """Track analyte levels over a timeline (cell-culture scenario).

        Args:
            timeline_hours: sample times [h].
            concentration_profiles: analyte name -> true concentration at
                each time [mol/L].

        Returns:
            analyte name -> estimated concentration series [mol/L].
        """
        rng = get_rng(rng)
        timeline_hours = np.asarray(timeline_hours, dtype=float)
        for name, profile in concentration_profiles.items():
            if np.asarray(profile).shape != timeline_hours.shape:
                raise ValueError(
                    f"profile for {name!r} does not match the timeline")
        estimates = {name: np.empty_like(timeline_hours)
                     for name in self.analytes.values()}
        for index in range(timeline_hours.size):
            sample = {name: float(np.asarray(profile)[index])
                      for name, profile in concentration_profiles.items()}
            estimated = self.measure_sample(sample, rng)
            for name, value in estimated.items():
                estimates[name][index] = value
        return estimates


def reference_metabolite_platform() -> MultiTargetPlatform:
    """The paper's metabolite panel: glucose, lactate, glutamate channels."""
    from repro.core.registry import spec_by_id

    return MultiTargetPlatform.from_specs([
        spec_by_id("glucose/this-work"),
        spec_by_id("lactate/this-work"),
        spec_by_id("glutamate/this-work"),
    ])


def default_calibration_upper(spec: SensorSpec) -> float:
    """Published linear-range upper bound of a spec [mol/L]."""
    return molar_from_millimolar(spec.paper_range_mm[1])
