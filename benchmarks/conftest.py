"""Benchmark configuration.

Each benchmark regenerates one table or figure of the paper through the
full simulated pipeline, asserts the *shape* claims (who wins, rough
factors, crossovers) and prints the regenerated rows so the run log doubles
as the reproduction record.  Heavy end-to-end benches run one round
(``benchmark.pedantic``); micro-benches use the default calibration.

Perf trajectory: engine benches also drop a machine-readable
``BENCH_<name>.json`` next to this file (override the directory with
``BENCH_JSON_DIR``) through the :func:`bench_json` fixture, so speedups
are *tracked* across PRs, not just asserted once.  The speedup gates
themselves run once, for every registered workload, in
``bench_core.py`` through the shared harness
(``benchmarks/harness.py``); the per-engine bench files keep only
their domain claims.  The workload-scale plan factories live here so
the domain benches and the unified speedup gate time the same plans.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture()
def rng():
    return np.random.default_rng(2012)  # DAC 2012


@pytest.fixture(scope="session")
def historical_point():
    """The pre-engine scalar pipeline, reproduced from the primitives.

    ``measure_amperometric_point`` is now itself an engine wrapper with
    a kernel cache, so timing it would compare engine against engine;
    this keeps the calibration baseline honest (one full technique ->
    chain -> DSP pass per point, clean path recomputed every time).
    """
    from repro.signal.steady_state import extract_steady_state

    def point(sensor, concentration, rng=None, add_noise=True):
        record = sensor.ca_protocol.simulate_step(
            sensor.steady_state_current, concentration,
            duration_s=16.0, response_time_s=sensor.response_time_s)
        acquired = sensor.chain.acquire(
            record.current_a, record.sampling_rate_hz, rng=rng,
            add_noise=add_noise)
        value = extract_steady_state(acquired.time_s,
                                     acquired.current_a).value
        if add_noise and sensor.repeatability_std_a > 0:
            value += float(rng.normal(0.0, sensor.repeatability_std_a))
        return value

    return point


@pytest.fixture(scope="session")
def calibration_panel():
    """The glucose sensor panel with its per-sensor grids (blanks in)."""
    from repro.core.calibration import default_protocol_for_range
    from repro.core.registry import build_sensor, specs_by_group

    sensors = tuple(build_sensor(spec)
                    for spec in specs_by_group("glucose"))
    protocols = [default_protocol_for_range(
        sensor.linear_range_upper_molar()) for sensor in sensors]
    grids = tuple((0.0,) + tuple(p.concentrations_molar)
                  for p in protocols)
    return sensors, grids


@pytest.fixture(scope="session")
def monitor_week_plan():
    """Factory for the monitor bench plan: 12 wearers, one week, 5 min."""
    from repro.engine.monitor import MonitorPlan, glucose_cohort

    def make(chunk_samples=4096, duration_h=7 * 24.0, keep_traces=True):
        return MonitorPlan(
            channels=glucose_cohort(12), duration_h=duration_h,
            sample_period_s=300.0, chunk_samples=chunk_samples,
            seed=2012, keep_traces=keep_traces)

    return make


@pytest.fixture(scope="session")
def therapy_course_plan():
    """Factory for the therapy bench plan: 24 patients, 6 doses, 12 h."""
    from repro.engine.therapy import TherapyPlan
    from repro.pk import CYCLOSPORINE
    from repro.therapy import BayesianTroughController

    def make(chunk_samples=4096, keep_traces=True, **overrides):
        drug = CYCLOSPORINE
        cohort = drug.population.sample(24, seed=2012)
        controller = BayesianTroughController(
            prior=drug.typical_model(),
            target_trough_molar=drug.window.target_trough_molar,
            observation_sigma_molar=4e-7)
        settings = dict(controller=controller, n_doses=6,
                        dose_interval_h=12.0, sample_period_s=900.0,
                        chunk_samples=chunk_samples, seed=2012,
                        process_noise_sigma_molar=1e-7,
                        wander_sigma_a=2e-9, keep_traces=keep_traces)
        settings.update(overrides)
        return TherapyPlan.for_drug(drug, cohort, **settings)

    return make


@pytest.fixture(scope="session")
def estimation_cohort_plan():
    """Factory for the estimation bench plan: 96 channels, three days."""
    from repro.engine.estimation import EstimationPlan
    from repro.engine.monitor import MonitorPlan, glucose_cohort

    def make(n_channels=96, duration_h=3 * 24.0):
        return EstimationPlan(monitor=MonitorPlan(
            channels=glucose_cohort(n_channels), duration_h=duration_h,
            sample_period_s=300.0, seed=2012))

    return make


@pytest.fixture()
def bench_json():
    """Writer for machine-readable benchmark records.

    Returns a callable ``write(name, **payload)`` that serializes the
    payload (sorted keys, 2-space indent) to ``BENCH_<name>.json`` in
    ``BENCH_JSON_DIR`` (default: the benchmarks directory) and returns
    the path.  Keep payloads flat and numeric so cross-PR tooling can
    diff them without schema knowledge.
    """
    def write(name: str, **payload) -> Path:
        directory = Path(os.environ.get("BENCH_JSON_DIR",
                                        Path(__file__).resolve().parent))
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")
        return path

    return write
