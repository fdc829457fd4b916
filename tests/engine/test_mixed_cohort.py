"""A mixed cohort through the shared wear front end.

The contract plans wear one sensor design each, so the paths that group
rows by chain design and by OU coefficient only see one group there.
This cohort interleaves two chain designs (TIA gain and ADC bits), turns
the circadian term off on one trajectory and the excursion term off on
another, and spreads the truth and wander OU over several coefficients.
Each workload must match its scalar oracle and be bit-identical across
chunk sizes 1, 12 and the whole horizon.  The monitor's MARD is the one
exception: it sums each chunk's errors into a running total, so its
rounding follows the chunking and it is held to its contract tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analytes.physiological import ConcentrationTrajectory
from repro.bio.matrix import SERUM
from repro.core.longterm import DriftBudget
from repro.core.registry import build_sensor, spec_by_id
from repro.engine.core import (
    assert_fields_match,
    execute,
    kernels_for,
    run_scalar,
)
from repro.engine.estimation import EstimationPlan
from repro.engine.monitor import (
    MonitorChannel,
    MonitorPlan,
    RecalibrationPolicy,
    chain_groups,
)
from repro.enzymes.stability import EnzymeStability

CHUNKS = (1, 12, None)      # None: the whole horizon in one chunk
SUMMED_PER_CHUNK = {"mard"}


def _second_design(sensor):
    """The same sensor behind half the TIA gain and a 12-bit ADC."""
    chain = sensor.chain
    return replace(sensor, chain=replace(
        chain, tia=replace(chain.tia, gain_v_per_a=chain.tia.gain_v_per_a / 2),
        adc=replace(chain.adc, n_bits=12)))


@pytest.fixture(scope="module")
def designs():
    sensor = build_sensor(spec_by_id("glucose/this-work"))
    return sensor, _second_design(sensor)


@pytest.fixture(scope="module")
def monitor_plan(designs):
    base = ConcentrationTrajectory.for_analyte("glucose")
    budget = DriftBudget(stability=EnzymeStability(half_life_s=5 * 86400.0),
                         matrix=SERUM)
    trajectories = (
        replace(base, circadian_amplitude_molar=0.0),
        replace(base, excursion_amplitude_molar=0.0, noise_tau_h=2.5),
        replace(base, circadian_phase_h=7.0, noise_tau_h=0.5),
        replace(base, baseline_molar=0.8 * base.baseline_molar),
    )
    wander = ((2e-9, 6.0), (3e-9, 2.0), (0.0, 6.0), (2e-9, 9.0))
    channels = tuple(
        MonitorChannel(patient_id=f"mixed-{i}", sensor=designs[i % 2],
                       trajectory=trajectory, budget=budget,
                       wander_sigma_a=sigma, wander_tau_h=tau)
        for i, (trajectory, (sigma, tau)) in enumerate(
            zip(trajectories, wander)))
    return MonitorPlan(
        channels=channels, duration_h=36.0, sample_period_s=900.0,
        chunk_samples=12, seed=41,
        recalibration=RecalibrationPolicy(reference_interval_h=6.0,
                                          tolerance=0.05))


@pytest.fixture(scope="module")
def therapy_plan(designs):
    """Therapy wears one design per plan: the contract plan behind the
    second chain design."""
    plan = kernels_for("therapy").contract_plan()
    return replace(plan, sensor=_second_design(plan.sensor))


def _plan(workload, monitor_plan, therapy_plan):
    if workload == "monitor":
        return monitor_plan
    if workload == "estimation":
        return EstimationPlan(monitor=monitor_plan)
    return therapy_plan


WORKLOADS = ("monitor", "therapy", "estimation")


def test_cohort_mixes_what_it_claims(monitor_plan):
    assert len(chain_groups([c.sensor for c in monitor_plan.channels])) == 2
    state = kernels_for("monitor").init_state(monitor_plan)
    assert len(state.truth_ou.groups) == 3
    assert len(state.wander_ou.groups) == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_matches_scalar_oracle(workload, monitor_plan, therapy_plan):
    kernels = kernels_for(workload)
    plan = _plan(workload, monitor_plan, therapy_plan)
    assert_fields_match(workload, "mixed cohort vs scalar",
                        kernels.contract_fields(execute(kernels, plan)),
                        kernels.contract_fields(run_scalar(workload, plan)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_chunk_invariance_is_bit_identical(workload, monitor_plan,
                                           therapy_plan):
    kernels = kernels_for(workload)
    plan = _plan(workload, monitor_plan, therapy_plan)
    runs = [kernels.contract_fields(execute(
        kernels, kernels.with_chunk_samples(plan, chunk or plan.n_samples)))
        for chunk in CHUNKS]
    for chunk, run in zip(CHUNKS[1:], runs[1:]):
        assert_fields_match(workload, f"chunk 1 vs {chunk}", runs[0], run)
        for name, check in runs[0].items():
            if name not in SUMMED_PER_CHUNK:
                assert np.array_equal(np.asarray(check.value),
                                      np.asarray(run[name].value)), (
                    f"{workload} {name}: chunk 1 vs {chunk}")
