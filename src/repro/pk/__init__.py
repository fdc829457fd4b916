"""Pharmacokinetics: dose -> concentration, over virtual populations.

The missing physics of personalized medicine: the sensor panel of the
paper measures a drug level, but *therapy* is about the dose that
produced it.  This package models that forward map in closed form —
one- and two-compartment models with first-order absorption and
CYP-mediated clearance (:mod:`repro.pk.models`), dose regimens
evaluated by superposition (:mod:`repro.pk.dosing`), virtual-patient
populations stratified by CYP phenotype (:mod:`repro.pk.population`)
and a drug catalog with therapeutic windows (:mod:`repro.pk.drugs`) —
all as batch kernels over ``(n_patients, n_times)`` arrays, the shape
the closed-loop therapy engine (:mod:`repro.engine.therapy`) consumes.

Quickstart::

    from repro.pk import CYCLOSPORINE, concentration_from_doses
    import numpy as np

    cohort = CYCLOSPORINE.population.sample(n_patients=16, seed=7)
    levels = concentration_from_doses(
        np.linspace(0.0, 96.0, 385), dose_times_h=12.0 * np.arange(6),
        doses_mol=8e-4, params=cohort.params())
"""

from repro.pk.models import (
    OneCompartmentPK,
    PKParams,
    Route,
    one_compartment_bolus_batch,
    one_compartment_infusion_batch,
    one_compartment_oral_batch,
    two_compartment_bolus_batch,
    two_compartment_infusion_batch,
    two_compartment_oral_batch,
)
from repro.pk.dosing import (
    concentration_from_doses,
    steady_state_trough_per_mol,
)
from repro.pk.population import (
    CYPPhenotype,
    DEFAULT_CLEARANCE_MULTIPLIERS,
    DEFAULT_PHENOTYPE_FRACTIONS,
    PatientCohort,
    PopulationModel,
    VirtualPatient,
)
from repro.pk.drugs import (
    CYCLOPHOSPHAMIDE,
    CYCLOSPORINE,
    DrugSpec,
    TherapeuticWindow,
    drug_by_name,
)

__all__ = [
    "OneCompartmentPK",
    "PKParams",
    "Route",
    "one_compartment_bolus_batch",
    "one_compartment_infusion_batch",
    "one_compartment_oral_batch",
    "two_compartment_bolus_batch",
    "two_compartment_infusion_batch",
    "two_compartment_oral_batch",
    "concentration_from_doses",
    "steady_state_trough_per_mol",
    "CYPPhenotype",
    "DEFAULT_CLEARANCE_MULTIPLIERS",
    "DEFAULT_PHENOTYPE_FRACTIONS",
    "PatientCohort",
    "PopulationModel",
    "VirtualPatient",
    "CYCLOPHOSPHAMIDE",
    "CYCLOSPORINE",
    "DrugSpec",
    "TherapeuticWindow",
    "drug_by_name",
]
