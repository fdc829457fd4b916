"""Virtual patient populations: CYP phenotypes and covariates.

Personalized medicine exists because patients differ — most famously in
cytochrome-P450 metabolizer status, where the same dose of a CYP-cleared
drug produces several-fold different exposures between a *poor* and an
*ultrarapid* metabolizer.  This module samples cohorts of
:class:`VirtualPatient` records whose clearance, volume and absorption
vary by CYP phenotype and covariates (allometric body-weight scaling
plus lognormal between-subject variability), producing the
``(n_patients,)`` parameter arrays (:class:`repro.pk.models.PKParams`)
that the closed-loop therapy engine advances in one vectorized pass.

Determinism contract (mirrors :mod:`repro.engine.plan`): sampling spawns
**one child generator per patient** from the root seed
(:func:`repro.rng.spawn_generators`), each consumed in a fixed draw
order — so patient ``i`` of a seeded cohort is identical no matter how
large the cohort is or how it is later sharded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.pk.models import OneCompartmentPK, PKParams
from repro.rng import spawn_generators


class CYPPhenotype(enum.Enum):
    """CYP450 metabolizer status (the pharmacogenetic strata)."""

    POOR = "poor"
    INTERMEDIATE = "intermediate"
    EXTENSIVE = "extensive"
    ULTRARAPID = "ultrarapid"


#: Caucasian-population-like phenotype frequencies (CYP2D6-flavored;
#: override per drug/isoform through ``PopulationModel``).
DEFAULT_PHENOTYPE_FRACTIONS: Mapping[CYPPhenotype, float] = MappingProxyType({
    CYPPhenotype.POOR: 0.07,
    CYPPhenotype.INTERMEDIATE: 0.25,
    CYPPhenotype.EXTENSIVE: 0.60,
    CYPPhenotype.ULTRARAPID: 0.08,
})

#: Clearance multipliers relative to the extensive-metabolizer typical
#: value — the phenotype's whole pharmacokinetic effect in this model.
DEFAULT_CLEARANCE_MULTIPLIERS: Mapping[CYPPhenotype, float] = (
    MappingProxyType({
        CYPPhenotype.POOR: 0.35,
        CYPPhenotype.INTERMEDIATE: 0.70,
        CYPPhenotype.EXTENSIVE: 1.00,
        CYPPhenotype.ULTRARAPID: 1.90,
    }))


@dataclass(frozen=True)
class VirtualPatient:
    """One sampled patient: identity, phenotype, covariates, parameters.

    Attributes:
        patient_id: cohort identity (stable under reseeding).
        phenotype: CYP metabolizer status.
        weight_kg: body weight covariate.
        clearance_l_per_h: individual elimination clearance [L/h].
        volume_l: individual central volume [L].
        ka_per_h: individual absorption rate [1/h].
        bioavailability: absorbed oral fraction in (0, 1].
    """

    patient_id: str
    phenotype: CYPPhenotype
    weight_kg: float
    clearance_l_per_h: float
    volume_l: float
    ka_per_h: float
    bioavailability: float

    def one_compartment(self) -> OneCompartmentPK:
        """The patient's scalar one-compartment model."""
        return OneCompartmentPK(
            clearance_l_per_h=self.clearance_l_per_h,
            volume_l=self.volume_l,
            ka_per_h=self.ka_per_h,
            bioavailability=self.bioavailability)


@dataclass(frozen=True)
class PatientCohort:
    """A sampled virtual-patient cohort in batch (array) form.

    Attributes:
        patients: the individual records, one per patient.
    """

    patients: tuple[VirtualPatient, ...]

    def __post_init__(self) -> None:
        if not self.patients:
            raise ValueError("cohort needs at least one patient")

    @property
    def n_patients(self) -> int:
        """Cohort size."""
        return len(self.patients)

    @property
    def phenotypes(self) -> tuple[CYPPhenotype, ...]:
        """Phenotype per patient, in cohort order."""
        return tuple(p.phenotype for p in self.patients)

    @property
    def weights_kg(self) -> np.ndarray:
        """Body weight per patient [kg], shape ``(n_patients,)``."""
        return np.array([p.weight_kg for p in self.patients])

    def params(self) -> PKParams:
        """The cohort's ``(n_patients,)`` parameter arrays."""
        return PKParams(
            clearance_l_per_h=np.array(
                [p.clearance_l_per_h for p in self.patients]),
            volume_l=np.array([p.volume_l for p in self.patients]),
            ka_per_h=np.array([p.ka_per_h for p in self.patients]),
            bioavailability=np.array(
                [p.bioavailability for p in self.patients]))

    def phenotype_mask(self, phenotype: CYPPhenotype) -> np.ndarray:
        """Boolean ``(n_patients,)`` mask selecting one phenotype."""
        return np.array([p is phenotype for p in self.phenotypes])

    def phenotype_fractions_observed(self) -> dict[CYPPhenotype, float]:
        """Observed phenotype fractions of this sample (sums to 1)."""
        n = self.n_patients
        return {phenotype: float(np.sum(self.phenotype_mask(phenotype))) / n
                for phenotype in CYPPhenotype}

    def subset(self, mask: np.ndarray) -> "PatientCohort":
        """The sub-cohort selected by a boolean mask (non-empty)."""
        selected = tuple(p for p, keep in zip(self.patients, mask) if keep)
        return PatientCohort(patients=selected)

    def summary(self) -> str:
        """One-line cohort description (size, phenotype mix, CL span)."""
        fractions = self.phenotype_fractions_observed()
        mix = ", ".join(
            f"{ph.value} {fractions[ph] * 100:.0f} %"
            for ph in CYPPhenotype if fractions[ph] > 0)
        cl = self.params().clearance_l_per_h
        return (f"{self.n_patients} virtual patients ({mix}); clearance "
                f"{float(np.min(cl)):.1f}-{float(np.max(cl)):.1f} L/h")


def _lognormal_sigma(cv: float) -> float:
    """Lognormal shape parameter matching a coefficient of variation."""
    return float(np.sqrt(np.log1p(cv * cv)))


@dataclass(frozen=True)
class PopulationModel:
    """Population PK distribution a virtual cohort is sampled from.

    The typical (extensive-metabolizer, reference-weight) parameters
    plus the variability structure: CYP phenotype strata scaling
    clearance, allometric body-weight scaling (exponent 0.75 on
    clearance, 1.0 on volume), and lognormal between-subject
    variability on clearance, volume and absorption.

    Attributes:
        typical_clearance_l_per_h: extensive-metabolizer clearance at
            the reference weight [L/h].
        typical_volume_l: central volume at the reference weight [L].
        typical_ka_per_h: absorption rate [1/h].
        bioavailability: absorbed oral fraction in (0, 1], shared.
        phenotype_fractions: population frequency per phenotype
            (must sum to 1).
        clearance_multipliers: clearance scale per phenotype.
        clearance_cv / volume_cv / ka_cv: lognormal between-subject
            coefficients of variation.
        weight_mean_kg / weight_sd_kg: body-weight distribution
            (normal, clipped to [40, 140] kg).
        weight_ref_kg: allometric reference weight [kg].
    """

    typical_clearance_l_per_h: float
    typical_volume_l: float
    typical_ka_per_h: float = 1.0
    bioavailability: float = 1.0
    phenotype_fractions: Mapping[CYPPhenotype, float] = field(
        default_factory=lambda: DEFAULT_PHENOTYPE_FRACTIONS)
    clearance_multipliers: Mapping[CYPPhenotype, float] = field(
        default_factory=lambda: DEFAULT_CLEARANCE_MULTIPLIERS)
    clearance_cv: float = 0.25
    volume_cv: float = 0.15
    ka_cv: float = 0.30
    weight_mean_kg: float = 75.0
    weight_sd_kg: float = 12.0
    weight_ref_kg: float = 70.0

    def __post_init__(self) -> None:
        if (self.typical_clearance_l_per_h <= 0
                or self.typical_volume_l <= 0
                or self.typical_ka_per_h <= 0):
            raise ValueError("typical CL, V and ka must be > 0")
        if not 0.0 < self.bioavailability <= 1.0:
            raise ValueError("bioavailability must be in (0, 1]")
        total = sum(self.phenotype_fractions.get(ph, 0.0)
                    for ph in CYPPhenotype)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"phenotype fractions must sum to 1, got {total}")
        if any(self.phenotype_fractions.get(ph, 0.0) < 0
               for ph in CYPPhenotype):
            raise ValueError("phenotype fractions must be >= 0")
        if any(self.clearance_multipliers.get(ph, 0.0) <= 0
               for ph in CYPPhenotype):
            raise ValueError("clearance multipliers must be > 0")
        if min(self.clearance_cv, self.volume_cv, self.ka_cv) < 0:
            raise ValueError("variability CVs must be >= 0")
        if self.weight_mean_kg <= 0 or self.weight_sd_kg < 0:
            raise ValueError("weight distribution must be positive")
        if self.weight_ref_kg <= 0:
            raise ValueError("reference weight must be > 0")

    def monomorphic(self, phenotype: CYPPhenotype) -> "PopulationModel":
        """This population restricted to a single phenotype.

        The cohort builder for stratified what-if runs — e.g. "how does
        fixed dosing fail a whole ward of poor metabolizers?".
        """
        from dataclasses import replace

        fractions = {ph: 0.0 for ph in CYPPhenotype}
        fractions[phenotype] = 1.0
        return replace(self, phenotype_fractions=MappingProxyType(fractions))

    def _phenotype_from_uniform(self, u: float) -> CYPPhenotype:
        """Map one uniform draw onto the phenotype strata (fixed order)."""
        edge = 0.0
        for phenotype in CYPPhenotype:
            edge += self.phenotype_fractions.get(phenotype, 0.0)
            if u < edge:
                return phenotype
        return CYPPhenotype.ULTRARAPID

    def sample(self, n_patients: int,
               seed: int | None = None) -> PatientCohort:
        """Draw a seeded virtual-patient cohort.

        Each patient owns one spawned generator consumed in a fixed
        order (phenotype stratum, weight, three lognormal etas), so
        cohorts are replayable and extension-stable: growing
        ``n_patients`` never changes the patients already drawn.

        Args:
            n_patients: cohort size, >= 1.
            seed: root seed (``None`` draws an irreproducible cohort).

        Returns:
            The sampled :class:`PatientCohort`.
        """
        if n_patients < 1:
            raise ValueError("need at least one patient")
        rngs = spawn_generators(seed, n_patients)
        sigma_cl = _lognormal_sigma(self.clearance_cv)
        sigma_v = _lognormal_sigma(self.volume_cv)
        sigma_ka = _lognormal_sigma(self.ka_cv)
        patients = []
        for i, rng in enumerate(rngs):
            phenotype = self._phenotype_from_uniform(float(rng.uniform()))
            weight = float(np.clip(
                rng.normal(self.weight_mean_kg, self.weight_sd_kg),
                40.0, 140.0))
            eta_cl = float(np.exp(rng.normal(0.0, sigma_cl)))
            eta_v = float(np.exp(rng.normal(0.0, sigma_v)))
            eta_ka = float(np.exp(rng.normal(0.0, sigma_ka)))
            allometric = weight / self.weight_ref_kg
            patients.append(VirtualPatient(
                patient_id=f"patient-{i:03d}",
                phenotype=phenotype,
                weight_kg=weight,
                clearance_l_per_h=(
                    self.typical_clearance_l_per_h
                    * self.clearance_multipliers[phenotype]
                    * allometric ** 0.75 * eta_cl),
                volume_l=self.typical_volume_l * allometric * eta_v,
                ka_per_h=self.typical_ka_per_h * eta_ka,
                bioavailability=self.bioavailability,
            ))
        return PatientCohort(patients=tuple(patients))
