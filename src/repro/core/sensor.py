"""The composed biosensor: chemical layer + electrical layer.

Following the paper's platform philosophy, a :class:`Biosensor` is an
explicit composition — electrode cell, nanostructured film, immobilized
enzyme, measurement technique and acquisition chain — with "a clear
separation between the chemical and the electrical components" (abstract).
Swapping the enzyme retargets the sensor; swapping the chain retargets the
electronics; nothing else changes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.analytes.catalog import Analyte
from repro.chem.doublelayer import DoubleLayer
from repro.chem.species import CYP_HEME, HYDROGEN_PEROXIDE, RedoxCouple
from repro.electrodes.cell import ThreeElectrodeCell
from repro.enzymes.catalog import EnzymeFamily
from repro.enzymes.immobilization import ImmobilizedLayer
from repro.instrument.chain import AcquisitionChain
from repro.nano.film import NanostructuredFilm
from repro.techniques.chronoamperometry import Chronoamperometry
from repro.techniques.cyclic_voltammetry import CyclicVoltammetry


class ReadoutMode(enum.Enum):
    """How the calibration signal is extracted."""

    AMPEROMETRIC_STEADY_STATE = "amperometric_steady_state"
    VOLTAMMETRIC_PEAK = "voltammetric_peak"


@dataclass(frozen=True)
class Biosensor:
    """A fully composed biosensor channel.

    Attributes:
        name: sensor identity (e.g. ``"MWCNT/Nafion + GOD (this work)"``).
        analyte: the target molecule.
        layer: immobilized enzyme layer (coverage, kinetics, collection).
        cell: three-electrode cell.
        film: nanostructured surface modification.
        chain: acquisition electronics.
        readout: signal-extraction mode.
        response_time_s: first-order response time of the sensor.
        repeatability_std_a: per-measurement 1-sigma reproducibility [A];
            aggregates drop-casting variability, baseline wander and O2
            background — the quantity that sets the limit of detection.
        ca_protocol: chronoamperometry settings (amperometric mode).
        cv_protocol: cyclic-voltammetry settings (voltammetric mode).
        background_current_a: stationary background current [A].
    """

    name: str
    analyte: Analyte
    layer: ImmobilizedLayer
    cell: ThreeElectrodeCell
    film: NanostructuredFilm
    chain: AcquisitionChain
    readout: ReadoutMode
    response_time_s: float = 2.0
    repeatability_std_a: float = 0.0
    ca_protocol: Chronoamperometry = field(
        default_factory=Chronoamperometry)
    cv_protocol: CyclicVoltammetry = field(
        default_factory=lambda: CyclicVoltammetry(
            e_start_v=0.1, e_vertex_v=-0.8, scan_rate_v_s=0.1,
            sampling_rate_hz=100.0))
    background_current_a: float = 0.0

    def __post_init__(self) -> None:
        if self.response_time_s <= 0:
            raise ValueError("response time must be > 0")
        if self.repeatability_std_a < 0:
            raise ValueError("repeatability must be >= 0")

    # ------------------------------------------------------------------
    # Geometry and interfacial properties.
    # ------------------------------------------------------------------

    @property
    def area_m2(self) -> float:
        """Geometric working-electrode area [m^2]."""
        return self.cell.working_area_m2

    def double_layer(self) -> DoubleLayer:
        """Double layer of the film-modified electrode."""
        bare = self.cell.bare_double_layer()
        return DoubleLayer(
            capacitance_per_area=(bare.capacitance_per_area
                                  * self.film.capacitance_enhancement()),
            series_resistance=bare.series_resistance,
        )

    def detected_couple(self) -> RedoxCouple:
        """The film-enhanced redox couple that carries the signal."""
        if self.layer.enzyme.family is EnzymeFamily.OXIDASE:
            base = HYDROGEN_PEROXIDE
        else:
            base = CYP_HEME
        return self.film.modify_couple(base)

    # ------------------------------------------------------------------
    # Response model.
    # ------------------------------------------------------------------

    def steady_state_current(self, concentration_molar: float) -> float:
        """Plateau faradaic current [A] at ``concentration_molar``."""
        signal = self.layer.steady_state_current(
            concentration_molar, self.area_m2)
        return float(signal) + self.background_current_a

    def expected_slope_a_per_molar(self) -> float:
        """Analytic linear-regime calibration slope [A/M]."""
        return self.layer.sensitivity_si() * self.area_m2

    def expected_lod_molar(self) -> float:
        """Analytic limit of detection [mol/L]: 3 sigma / slope.

        Combines the per-measurement repeatability with the acquisition
        chain's input-referred noise.
        """
        slope = self.expected_slope_a_per_molar()
        if slope <= 0:
            raise ValueError("sensor has a non-positive calibration slope")
        chain_noise = self.chain.input_referred_noise_rms()
        sigma = float(np.hypot(self.repeatability_std_a, chain_noise))
        return 3.0 * sigma / slope

    def linear_range_upper_molar(self, tolerance: float = 0.1) -> float:
        """Analytic upper linearity limit [mol/L] (MM deviation criterion)."""
        if not 0.0 < tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
        return self.layer.apparent_km * tolerance / (1.0 - tolerance)

    def describe(self) -> str:
        """One-paragraph human-readable description of the composition."""
        film_label = (f"{self.film.medium.name} film"
                      if not self.film.has_nanotubes
                      else f"MWCNT/{self.film.medium.name} film "
                           f"({self.film.loading_kg_m2 * 1e5:.1f} ug/cm^2)")
        return (
            f"{self.name}: {self.analyte.name} sensor, "
            f"{self.layer.enzyme.name} on {film_label}, "
            f"{self.cell.name} ({self.area_m2 * 1e6:.2f} mm^2), "
            f"{self.readout.value} readout")
