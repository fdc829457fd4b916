"""Bench: the wear narrative the streaming monitor exists to quantify.

The finger-stick recalibration policy must cut cohort MARD hard versus
open-loop wear over a week-long cohort stream.

The speedup gate for this workload (and every other registered one)
runs in ``bench_core.py`` through the shared harness
(``benchmarks/harness.py``); the execution-contract gates (chunk
invariance, scalar equivalence, deterministic replay) live in
``tests/engine/test_core_contract.py``.
"""

from dataclasses import replace

import numpy as np

from repro.engine.monitor import RecalibrationPolicy, run_monitor


def test_recalibration_pays_for_itself(monitor_week_plan):
    """The wear narrative the engine exists to quantify: the finger-stick
    policy must cut cohort MARD hard versus open-loop wear."""
    closed = run_monitor(monitor_week_plan(keep_traces=False))
    open_loop = run_monitor(replace(
        monitor_week_plan(keep_traces=False),
        recalibration=RecalibrationPolicy(enabled=False)))
    closed_mard = float(np.mean(closed.mard))
    open_mard = float(np.mean(open_loop.mard))
    print(f"\ncohort MARD: recalibrated {closed_mard * 100:.1f} % vs "
          f"open-loop {open_mard * 100:.1f} %")
    assert closed_mard < 0.5 * open_mard
