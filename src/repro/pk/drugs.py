"""Drug catalog: therapeutic windows and population PK priors.

The paper's drug panel (section 2.1) targets CYP450-metabolized
therapeutics whose narrow windows make them monitoring candidates in the
first place.  Each :class:`DrugSpec` bundles what the closed-loop
workload needs: the molar therapeutic window the sensor must police, the
population pharmacokinetics a virtual cohort is drawn from, and the CYP
isoform that links the drug to a sensor spec in
:mod:`repro.core.registry`.

Concentration scale: the simulated CYP sensors resolve low-micromolar
levels (LOD ~1 uM), so the catalog windows sit in the uM decade the
assay can actually read.  For cyclosporine that is one order above the
clinical whole-blood window — the loop *dynamics* (phenotype-dependent
exposure, trough targeting, Bayesian individualization) are what is
reproduced, not the absolute ng/mL scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pk.population import PopulationModel


@dataclass(frozen=True)
class TherapeuticWindow:
    """The concentration band therapy tries to hold a patient inside.

    Attributes:
        low_molar: sub-therapeutic threshold [mol/L].
        high_molar: toxicity threshold [mol/L].
        target_trough_molar: the trough level dosing controllers aim
            for, inside ``(low, high)``.
    """

    low_molar: float
    high_molar: float
    target_trough_molar: float

    def __post_init__(self) -> None:
        if not 0.0 < self.low_molar < self.high_molar:
            raise ValueError("need 0 < low < high")
        if not (self.low_molar <= self.target_trough_molar
                <= self.high_molar):
            raise ValueError("target trough must sit inside the window")


@dataclass(frozen=True)
class DrugSpec:
    """One monitored therapeutic: window, population PK, sensor link.

    Attributes:
        name: drug name.
        molar_mass_g_per_mol: for mg <-> mol dose conversion.
        cyp_isoform: metabolizing isoform (phenotype strata apply to it).
        window: the therapeutic window to hold.
        population: population PK distribution of the treated cohort.
        sensor_id: the :mod:`repro.core.registry` spec monitoring the
            drug (or its isoform's electrochemical stand-in).
    """

    name: str
    molar_mass_g_per_mol: float
    cyp_isoform: str
    window: TherapeuticWindow
    population: PopulationModel
    sensor_id: str

    def __post_init__(self) -> None:
        if self.molar_mass_g_per_mol <= 0:
            raise ValueError("molar mass must be > 0")

    def typical_model(self) -> "OneCompartmentPK":
        """The population-typical one-compartment model.

        The prior a model-informed controller starts every patient
        from: extensive-metabolizer clearance at the reference weight,
        population volume, absorption and bioavailability.
        """
        from repro.pk.models import OneCompartmentPK

        return OneCompartmentPK(
            clearance_l_per_h=self.population.typical_clearance_l_per_h,
            volume_l=self.population.typical_volume_l,
            ka_per_h=self.population.typical_ka_per_h,
            bioavailability=self.population.bioavailability)

    def dose_mol_from_mg(self, dose_mg: float) -> float:
        """Convert an administered mass [mg] to moles."""
        return dose_mg * 1e-3 / self.molar_mass_g_per_mol

    def mg_from_dose_mol(self, dose_mol: float) -> float:
        """Convert a molar dose back to the prescribed mass [mg]."""
        return dose_mol * self.molar_mass_g_per_mol * 1e3


#: Cyclosporine (CYP3A4): the canonical narrow-window immunosuppressant.
#: PK shaped like the literature one-compartment reduction (t1/2 ~8 h,
#: slow oral absorption, F ~0.4); window scaled to the assay's uM decade.
CYCLOSPORINE = DrugSpec(
    name="cyclosporine",
    molar_mass_g_per_mol=1202.6,
    cyp_isoform="CYP3A4",
    window=TherapeuticWindow(
        low_molar=2.0e-6, high_molar=8.0e-6, target_trough_molar=3.0e-6),
    population=PopulationModel(
        typical_clearance_l_per_h=7.0,
        typical_volume_l=80.0,
        typical_ka_per_h=0.7,
        bioavailability=0.4,
        clearance_cv=0.28,
        volume_cv=0.15,
        ka_cv=0.30,
    ),
    sensor_id="cyp/ifosfamide",  # the registry's CYP3A4 electrode
)

#: Cyclophosphamide (CYP2B6-activated): the paper's own TDM example;
#: window matches the ``repro.analytes`` plasma-during-therapy range.
CYCLOPHOSPHAMIDE = DrugSpec(
    name="cyclophosphamide",
    molar_mass_g_per_mol=261.1,
    cyp_isoform="CYP2B6",
    window=TherapeuticWindow(
        low_molar=10.0e-6, high_molar=60.0e-6, target_trough_molar=20.0e-6),
    population=PopulationModel(
        typical_clearance_l_per_h=4.2,
        typical_volume_l=40.0,
        typical_ka_per_h=1.1,
        bioavailability=0.85,
        clearance_cv=0.25,
        volume_cv=0.15,
        ka_cv=0.30,
    ),
    sensor_id="cyp/cyclophosphamide",
)

_DRUGS = {spec.name: spec for spec in (CYCLOSPORINE, CYCLOPHOSPHAMIDE)}


def drug_by_name(name: str) -> DrugSpec:
    """Return the catalog entry for ``name`` (KeyError when unknown)."""
    try:
        return _DRUGS[name]
    except KeyError:
        raise KeyError(f"no drug spec for {name!r}; "
                       f"available: {sorted(_DRUGS)}") from None
