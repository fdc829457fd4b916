"""Three-electrode electrochemical cell.

A potentiostatic measurement needs a working electrode (where the chemistry
of interest happens), a counter electrode (closing the current loop) and a
reference electrode (fixing the potential scale).  The cell object bundles
them with the solution resistance and temperature, and computes the
composite double layer seen by the instrument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import STANDARD_TEMPERATURE
from repro.chem.doublelayer import DoubleLayer
from repro.electrodes.geometry import ElectrodeGeometry
from repro.electrodes.materials import ElectrodeMaterial


@dataclass(frozen=True)
class ReferenceElectrode:
    """Reference electrode with its potential vs. the standard H2 electrode.

    Attributes:
        name: e.g. ``"Ag pseudo-reference"`` or ``"Pt pseudo-reference"``.
        potential_vs_she: equilibrium potential [V vs. SHE].
        stability_mv: slow potential wander amplitude [mV] — pseudo-
            references (bare Ag or Pt, as in both of the paper's platforms)
            drift far more than true Ag/AgCl references.
    """

    name: str
    potential_vs_she: float
    stability_mv: float = 1.0

    def __post_init__(self) -> None:
        if self.stability_mv < 0:
            raise ValueError("stability must be >= 0")


#: True silver/silver-chloride reference (3 M KCl).
AG_AGCL = ReferenceElectrode("Ag/AgCl (3M KCl)", 0.210, stability_mv=0.5)

#: Bare-silver pseudo-reference of the DropSens screen-printed electrodes.
AG_PSEUDO = ReferenceElectrode("Ag pseudo-reference", 0.20, stability_mv=10.0)

#: Platinum pseudo-reference of the microfabricated chip (ref [3]).
PT_PSEUDO = ReferenceElectrode("Pt pseudo-reference", 0.55, stability_mv=15.0)


@dataclass(frozen=True)
class ThreeElectrodeCell:
    """Complete three-electrode cell.

    Attributes:
        name: human-readable cell identity.
        working_geometry: geometry of the working electrode.
        working_material: material of the working electrode.
        counter_material: material of the counter electrode.
        counter_area_m2: counter-electrode area (should exceed the working
            area so the counter never limits the current).
        reference: the reference electrode.
        solution_resistance_ohm: uncompensated resistance between reference
            and working electrode [ohm].
        temperature_k: cell temperature [K].
    """

    name: str
    working_geometry: ElectrodeGeometry
    working_material: ElectrodeMaterial
    counter_material: ElectrodeMaterial
    counter_area_m2: float
    reference: ReferenceElectrode = field(default=AG_AGCL)
    solution_resistance_ohm: float = 100.0
    temperature_k: float = STANDARD_TEMPERATURE

    def __post_init__(self) -> None:
        if self.counter_area_m2 <= 0:
            raise ValueError("counter area must be > 0")
        if self.solution_resistance_ohm < 0:
            raise ValueError("solution resistance must be >= 0")
        if self.temperature_k <= 0:
            raise ValueError("temperature must be > 0")

    @property
    def working_area_m2(self) -> float:
        """Geometric working-electrode area [m^2]."""
        return self.working_geometry.area_m2

    def bare_double_layer(self) -> DoubleLayer:
        """Double layer of the *unmodified* working electrode.

        Specific capacitance is scaled by the material roughness; film
        modification (CNT) multiplies it further via
        :meth:`repro.nano.film.NanostructuredFilm.capacitance_enhancement`.
        """
        specific = (self.working_material.specific_capacitance_f_m2
                    * self.working_material.roughness)
        return DoubleLayer(capacitance_per_area=specific,
                           series_resistance=self.solution_resistance_ohm)
