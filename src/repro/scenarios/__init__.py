"""Unified scenario API: one declarative front door for every workload.

The engine grew four workload classes — calibration campaigns
(:func:`repro.engine.run_batch`), wear-time monitoring
(:func:`repro.engine.run_monitor`), closed-loop therapy
(:func:`repro.engine.run_therapy`) and concentration estimation
(:func:`repro.engine.run_estimation`) — each with its own plan/run/result
triple.  This package puts one declarative, serializable surface in
front of all of them:

* a :class:`Workload` protocol — a spec decoder; execution stays with
  the engine registry — plus the global :data:`WORKLOADS` registry
  (the four engines register their decoders at import);
* the :class:`Scenario` spec — plain JSON with catalog references and
  explicit seeds, so any configured campaign, wear simulation,
  therapy course or reconstruction is a *replayable artifact*
  (``Scenario.from_dict(s.to_dict())`` reproduces results bit for bit);
* :func:`run_scenario` / :func:`run_scenarios` dispatchers (the batch
  form fans a scenario list across workloads with per-scenario spawned
  ``SeedSequence`` streams);
* the ``python -m repro`` command line (:mod:`repro.scenarios.cli`):
  ``run scenario.json [--out results.json]``, ``list``, ``describe``.

Results come back through :class:`ResultProtocol` — ``summary()`` /
``summary_row()`` / ``to_dict()`` — implemented by every engine result
type, so one export path serves all workloads.

Quickstart::

    from repro.scenarios import Scenario, run_scenario

    scenario = Scenario(
        workload="monitor", name="glucose-week", seed=42,
        spec={"cohort": {"sensor": "glucose/this-work",
                         "analyte": "glucose", "n_patients": 8},
              "duration_h": 168.0})
    result = run_scenario(scenario)
    print(result.summary())
    scenario.save("glucose-week.json")   # replay: python -m repro run
"""

from repro.scenarios.protocols import (
    ResultProtocol,
    WORKLOADS,
    Workload,
    available_workloads,
    register_workload,
    workload_by_name,
)
from repro.scenarios.spec import SCHEMA_VERSION, Scenario
from repro.scenarios.workloads import (
    CalibrationWorkload,
    EstimationWorkload,
    MonitorWorkload,
    TherapyWorkload,
)
from repro.scenarios.runner import (
    ScenarioRun,
    plan_for,
    run_scenario,
    run_scenarios,
    spawn_scenario_seeds,
)

__all__ = [
    "CalibrationWorkload",
    "EstimationWorkload",
    "MonitorWorkload",
    "ResultProtocol",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioRun",
    "TherapyWorkload",
    "WORKLOADS",
    "Workload",
    "available_workloads",
    "plan_for",
    "register_workload",
    "run_scenario",
    "run_scenarios",
    "spawn_scenario_seeds",
    "workload_by_name",
]
