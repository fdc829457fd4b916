"""Cyclic voltammetry: the CYP drug readout (paper section 3.1).

"A linear-sweep potential is applied forward and backward within a certain
potential window, while continuously monitoring the current.  The
hysteresis plot gives qualitative and quantitative information about the
detected target.  In particular, the peak height is proportional to drug
concentration."

Three simulation modes are provided:

* **solution couple** — full finite-difference diffusion with Butler-Volmer
  kinetics (:class:`repro.chem.diffusion.ElectrodeDiffusionSystem`);
  validated against Randles-Sevcik and used for the ferricyanide
  characterization figure;
* **surface-confined couple** — the adsorbed CYP heme redox wave (analytic
  Nernstian bell);
* **catalytic CYP wave** — the drug-sensing signal: substrate turnover by
  the reduced heme adds a sigmoidal catalytic reduction current whose
  plateau follows Michaelis-Menten in the drug concentration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import FARADAY, STANDARD_TEMPERATURE, thermal_voltage
from repro.chem.diffusion import ElectrodeDiffusionSystem
from repro.chem.doublelayer import DoubleLayer
from repro.chem.species import RedoxCouple
from repro.enzymes.immobilization import ImmobilizedLayer
from repro.techniques.base import Measurement, Waveform
from repro.techniques.waveform import cyclic_wave


@dataclass(frozen=True)
class CyclicVoltammetry:
    """Triangular-wave voltammetric protocol.

    Attributes:
        e_start_v: start (and return) potential [V].
        e_vertex_v: vertex potential [V].
        scan_rate_v_s: sweep rate [V/s].
        n_cycles: number of triangular cycles.
        sampling_rate_hz: analog simulation rate [Hz].
    """

    e_start_v: float
    e_vertex_v: float
    scan_rate_v_s: float = 0.05
    n_cycles: int = 1
    sampling_rate_hz: float = 200.0

    def __post_init__(self) -> None:
        if self.scan_rate_v_s <= 0:
            raise ValueError("scan rate must be > 0")
        if self.n_cycles < 1:
            raise ValueError("need >= 1 cycle")
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling rate must be > 0")
        if self.e_start_v == self.e_vertex_v:
            raise ValueError("start and vertex potentials must differ")

    def waveform(self) -> Waveform:
        """The triangular excitation waveform."""
        return cyclic_wave(self.e_start_v, self.e_vertex_v,
                           self.scan_rate_v_s, self.sampling_rate_hz,
                           self.n_cycles)

    # ------------------------------------------------------------------
    # Solution-phase couple (finite-difference engine).
    # ------------------------------------------------------------------

    def simulate_solution_couple(self,
                                 couple: RedoxCouple,
                                 bulk_ox_molar: float,
                                 bulk_red_molar: float,
                                 area_m2: float,
                                 double_layer: DoubleLayer | None = None,
                                 ) -> Measurement:
        """Simulate a diffusing redox couple through the full cycle.

        The reversible peak current of the result matches the
        Randles-Sevcik law within a few percent (validated in tests and the
        solver bench).
        """
        wave = self.waveform()
        system = ElectrodeDiffusionSystem(
            couple=couple,
            area_m2=area_m2,
            bulk_ox_molar=bulk_ox_molar,
            bulk_red_molar=bulk_red_molar,
            duration_s=wave.duration_s + 1.0 / self.sampling_rate_hz,
            n_time_steps=wave.n_samples,
        )
        current = system.run(wave.potential_v)
        if double_layer is not None:
            current = current + self._capacitive_background(
                wave, double_layer, area_m2)
        return Measurement(
            time_s=wave.time_s,
            potential_v=wave.potential_v,
            current_a=current,
            technique="cyclic voltammetry (solution couple)",
            sampling_rate_hz=self.sampling_rate_hz,
            metadata={
                "couple": couple.name,
                "bulk_ox_molar": bulk_ox_molar,
                "bulk_red_molar": bulk_red_molar,
            },
        )

    # ------------------------------------------------------------------
    # Surface-confined couple (adsorbed protein film).
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # Catalytic CYP drug wave.
    # ------------------------------------------------------------------

    def simulate_catalytic_cyp(self,
                               layer: ImmobilizedLayer,
                               couple: RedoxCouple,
                               substrate_molar: float,
                               area_m2: float,
                               double_layer: DoubleLayer | None = None,
                               interference_bell_a: float = 0.0,
                               peak_weight: float = 0.65,
                               temperature_k: float = STANDARD_TEMPERATURE,
                               ) -> Measurement:
        """Simulate the drug-sensing voltammogram of a CYP electrode.

        The current is the sum of

        * the heme surface wave (present with or without drug),
        * the catalytic reduction wave: once the heme is reduced
          (potential below E0'), immobilized CYP turns over the drug at the
          Michaelis-Menten rate.  Substrate depletion in the film makes the
          measured wave *peak-shaped* rather than a pure sigmoid — the
          reason the paper can quantify via "peak height" at all.  The wave
          is modelled as ``peak_weight`` of a bell centred on E0' (the
          kinetically-controlled, depletion-limited component) plus the
          remainder as the persistent sigmoidal plateau:
          ``i_cat = -i_max(C) [w bell(E) + (1-w) f_red(E)]`` with
          ``i_max = n F A eta Gamma kcat_eff C/(Km+C)``,
        * the capacitive background, and
        * an optional bell-shaped interference term (dissolved-O2 reduction
          at the heme potential) used by the noise model.
        """
        if substrate_molar < 0:
            raise ValueError("substrate concentration must be >= 0")
        if area_m2 <= 0:
            raise ValueError("area must be > 0")
        if not 0.0 <= peak_weight <= 1.0:
            raise ValueError(f"peak weight must be in [0, 1], got {peak_weight}")
        wave = self.waveform()
        surface = self._surface_wave_current(
            wave, couple, layer.coverage_mol_m2, area_m2, temperature_k)

        f_red = self._reduced_fraction(wave.potential_v, couple, temperature_k)
        bell = self._bell(wave.potential_v, couple, temperature_k)
        catalytic_plateau = (layer.enzyme.n_electrons * FARADAY * area_m2
                             * layer.collection_efficiency
                             * layer.areal_rate(substrate_molar))
        catalytic = -catalytic_plateau * (
            peak_weight * bell + (1.0 - peak_weight) * f_red)

        current = surface + catalytic
        if interference_bell_a != 0.0:
            current = current + interference_bell_a * self._bell(
                wave.potential_v, couple, temperature_k)
        if double_layer is not None:
            current = current + self._capacitive_background(
                wave, double_layer, area_m2)
        return Measurement(
            time_s=wave.time_s,
            potential_v=wave.potential_v,
            current_a=current,
            technique="cyclic voltammetry (catalytic CYP)",
            sampling_rate_hz=self.sampling_rate_hz,
            metadata={
                "substrate_molar": substrate_molar,
                "catalytic_plateau_a": catalytic_plateau,
                "enzyme": layer.enzyme.name,
            },
        )

    # ------------------------------------------------------------------
    # Shared helpers.
    # ------------------------------------------------------------------

    def _surface_wave_current(self,
                              wave: Waveform,
                              couple: RedoxCouple,
                              coverage_mol_m2: float,
                              area_m2: float,
                              temperature_k: float) -> np.ndarray:
        nf = couple.n_electrons / thermal_voltage(temperature_k)
        xi = nf * (wave.potential_v - couple.formal_potential)
        xi = np.clip(xi, -60.0, 60.0)
        occupancy_derivative = nf * np.exp(xi) / (1.0 + np.exp(xi)) ** 2
        scan_rate = wave.scan_rate_v_s()
        return (couple.n_electrons * FARADAY * area_m2 * coverage_mol_m2
                * occupancy_derivative * scan_rate)

    @staticmethod
    def _reduced_fraction(potential_v: np.ndarray,
                          couple: RedoxCouple,
                          temperature_k: float) -> np.ndarray:
        nf = couple.n_electrons / thermal_voltage(temperature_k)
        xi = np.clip(nf * (potential_v - couple.formal_potential), -60.0, 60.0)
        return 1.0 / (1.0 + np.exp(xi))

    @staticmethod
    def _bell(potential_v: np.ndarray,
              couple: RedoxCouple,
              temperature_k: float) -> np.ndarray:
        nf = couple.n_electrons / thermal_voltage(temperature_k)
        xi = np.clip(nf * (potential_v - couple.formal_potential), -60.0, 60.0)
        bell = np.exp(xi) / (1.0 + np.exp(xi)) ** 2
        return 4.0 * bell  # normalized to unit height at the formal potential

    def _capacitive_background(self,
                               wave: Waveform,
                               double_layer: DoubleLayer,
                               area_m2: float) -> np.ndarray:
        """RC-smoothed charging current following the sweep direction."""
        from scipy.signal import lfilter

        ideal = double_layer.capacitance(area_m2) * wave.scan_rate_v_s()
        tau = double_layer.time_constant(area_m2)
        if tau == 0.0:
            return ideal
        alpha = 1.0 - np.exp(-1.0 / (self.sampling_rate_hz * tau))
        b = [alpha]
        a = [1.0, -(1.0 - alpha)]
        zi = [(1.0 - alpha) * ideal[0]]
        smoothed, __ = lfilter(b, a, ideal, zi=zi)
        return smoothed
