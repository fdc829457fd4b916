"""Bench: the closed loop's raison d'etre, quantified on a mixed cohort.

On a phenotype-mixed cohort the model-informed Bayesian controller must
cut the trough-targeting error of fixed population dosing hard.

The speedup gate for this workload (and every other registered one)
runs in ``bench_core.py`` through the shared harness
(``benchmarks/harness.py``); the execution-contract gates (chunk
invariance, scalar equivalence, deterministic replay) live in
``tests/engine/test_core_contract.py``.
"""

from dataclasses import replace

import numpy as np

from repro.engine.therapy import run_therapy
from repro.pk import CYCLOSPORINE
from repro.pk.dosing import steady_state_trough_per_mol
from repro.therapy import FixedRegimenController

DOSE_INTERVAL_H = 12.0


def test_personalization_pays_for_itself(therapy_course_plan):
    """The loop's raison d'etre quantified: on a phenotype-mixed cohort
    the model-informed controller must cut the trough-targeting error
    of fixed population dosing hard."""
    drug = CYCLOSPORINE
    per_mol = float(steady_state_trough_per_mol(
        drug.typical_model().params(), DOSE_INTERVAL_H)[0])
    fixed_dose = drug.window.target_trough_molar / per_mol
    plan = therapy_course_plan(keep_traces=False)
    fixed_plan = replace(
        plan, controller=FixedRegimenController(dose_mol=fixed_dose))
    bayes = run_therapy(plan)
    fixed = run_therapy(fixed_plan)
    bayes_error = float(np.mean(bayes.trough_abs_rel_error))
    fixed_error = float(np.mean(fixed.trough_abs_rel_error))
    print(f"\ncohort trough error: bayesian {bayes_error * 100:.1f} % vs "
          f"fixed {fixed_error * 100:.1f} %")
    print(bayes.phenotype_summary())
    assert bayes_error < 0.75 * fixed_error
