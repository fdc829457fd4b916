"""Workload registry + the three built-in spec-to-plan adapters."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    BatchPlan,
    EstimationPlan,
    MonitorPlan,
    TherapyPlan,
    calibration_results_from_batch,
)
from repro.engine.core import kernels_for
from repro.scenarios import (
    ResultProtocol,
    WORKLOADS,
    Workload,
    available_workloads,
    register_workload,
    run_scenario,
    workload_by_name,
    Scenario,
    plan_for,
)
from repro.scenarios.workloads import MAX_COHORT

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
from repro.therapy import (
    BayesianTroughController,
    FixedRegimenController,
    ProportionalTroughController,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_workloads() == (
            "calibration", "estimation", "monitor", "therapy")

    def test_every_workload_satisfies_the_protocol(self):
        for name in available_workloads():
            assert isinstance(workload_by_name(name), Workload)

    def test_every_decoder_builds_its_kernel_sets_plan(self):
        """A decoder only decodes: its name has a kernel set, and the
        plan it builds is the one that kernel set runs."""
        for name in available_workloads():
            workload = workload_by_name(name)
            plan = workload.build_plan(workload.example_spec(), seed=1)
            assert type(plan) is kernels_for(name).plan_type
        assert kernels_for("calibration").plan_type is BatchPlan
        assert kernels_for("monitor").plan_type is MonitorPlan
        assert kernels_for("therapy").plan_type is TherapyPlan
        assert kernels_for("estimation").plan_type is EstimationPlan

    def test_decoder_without_kernel_set_rejected(self):
        class _Orphan:
            name = "orphan-without-kernels"

        with pytest.raises(ValueError, match="no kernel set"):
            register_workload(_Orphan())
        assert "orphan-without-kernels" not in WORKLOADS

    def test_unknown_workload_lists_registry(self):
        with pytest.raises(KeyError, match="registered"):
            workload_by_name("petri-dish")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload(workload_by_name("monitor"))

    def test_replace_registration_allowed(self):
        monitor = workload_by_name("monitor")
        assert register_workload(monitor, replace=True) is monitor
        assert WORKLOADS["monitor"] is monitor

    def test_describe_and_example_spec(self):
        for name in available_workloads():
            workload = workload_by_name(name)
            text = workload.describe()
            assert name in text
            assert "example spec" in text
            assert isinstance(workload.example_spec(), dict)

    def test_example_specs_build_valid_plans(self):
        for name in available_workloads():
            workload = workload_by_name(name)
            plan = workload.build_plan(workload.example_spec(), seed=1)
            assert isinstance(plan, kernels_for(name).plan_type)


class TestCalibrationWorkload:
    WORKLOAD = workload_by_name("calibration")

    def test_build_plan_resolves_catalog_ids(self):
        plan = self.WORKLOAD.build_plan(
            {"sensors": ["glucose/this-work", "lactate/this-work"],
             "n_blanks": 2, "n_replicates": 1}, seed=7)
        assert len(plan.sensors) == 2
        assert plan.seed == 7
        # Leading blank group with its own replicate count.
        assert plan.concentrations_molar[0][0] == 0.0
        assert plan.replicates_for(0)[0] == 2

    def test_upper_molar_scalar_and_per_sensor(self):
        shared = self.WORKLOAD.build_plan(
            {"sensors": ["glucose/this-work", "lactate/this-work"],
             "upper_molar": 1e-3}, seed=0)
        per_sensor = self.WORKLOAD.build_plan(
            {"sensors": ["glucose/this-work", "lactate/this-work"],
             "upper_molar": [1e-3, 5e-4]}, seed=0)
        assert (max(shared.concentrations_molar[0])
                == max(shared.concentrations_molar[1]))
        assert (max(per_sensor.concentrations_molar[1])
                == pytest.approx(0.5 * max(per_sensor.concentrations_molar[0])))

    def test_upper_molar_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="upper_molar"):
            self.WORKLOAD.build_plan(
                {"sensors": ["glucose/this-work"],
                 "upper_molar": [1e-3, 1e-3]}, seed=0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            self.WORKLOAD.build_plan(
                {"sensors": ["glucose/this-work"], "wat": 1}, seed=0)

    def test_unknown_sensor_id_rejected(self):
        with pytest.raises(KeyError):
            self.WORKLOAD.build_plan({"sensors": ["glucose/nope"]}, seed=0)

    def test_sensors_must_be_a_list(self):
        with pytest.raises(ValueError, match="sensors"):
            self.WORKLOAD.build_plan({"sensors": "glucose/this-work"},
                                     seed=0)

    def test_summarize_renders_table2_metrics(self):
        scenario = Scenario(
            workload="calibration", name="cal", seed=7,
            spec={"sensors": ["glucose/this-work"], "n_blanks": 3,
                  "n_replicates": 1})
        result = run_scenario(scenario)
        assert isinstance(result, ResultProtocol)
        rows = calibration_results_from_batch(result)
        assert len(rows) == 1
        assert "uA mM^-1 cm^-2" in result.summary()

    def test_results_from_batch_rejects_blankless_plans(self):
        from repro.engine import run_batch

        plan = BatchPlan(
            sensors=self.WORKLOAD.build_plan(
                {"sensors": ["glucose/this-work"]}, seed=0).sensors,
            concentrations_molar=((1e-4, 2e-4, 3e-4),),
            replicates=1, seed=0, add_noise=False)
        with pytest.raises(ValueError, match="blank"):
            calibration_results_from_batch(run_batch(plan))


class TestMonitorWorkload:
    WORKLOAD = workload_by_name("monitor")

    SPEC = {
        "cohort": {"sensor": "glucose/this-work", "analyte": "glucose",
                   "n_patients": 2, "wander_sigma_a": 2e-9},
        "duration_h": 6.0,
        "sample_period_s": 600.0,
        "recalibration": {"reference_interval_h": 2.0, "tolerance": 0.1},
        "keep_traces": False,
    }

    def test_build_plan(self):
        plan = self.WORKLOAD.build_plan(self.SPEC, seed=3)
        assert plan.n_channels == 2
        assert plan.seed == 3
        assert plan.recalibration.reference_interval_h == 2.0
        assert plan.channels[0].wander_sigma_a == 2e-9
        assert not plan.keep_traces

    def test_unknown_cohort_keys_rejected(self):
        spec = dict(self.SPEC)
        spec["cohort"] = {**spec["cohort"], "bogus": 1}
        with pytest.raises(ValueError, match="unknown keys"):
            self.WORKLOAD.build_plan(spec, seed=0)

    def test_missing_duration_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            self.WORKLOAD.build_plan({"cohort": self.SPEC["cohort"]},
                                     seed=0)

    def test_unknown_analyte_rejected(self):
        spec = dict(self.SPEC)
        spec["cohort"] = {**spec["cohort"], "analyte": "unobtainium"}
        with pytest.raises(KeyError):
            self.WORKLOAD.build_plan(spec, seed=0)


class TestEstimationWorkload:
    WORKLOAD = workload_by_name("estimation")

    SPEC = {
        "cohort": {"sensor": "glucose/this-work", "analyte": "glucose",
                   "n_patients": 2, "wander_sigma_a": 2e-9},
        "duration_h": 6.0,
        "sample_period_s": 600.0,
        "smooth": False,
        "interval_level": 0.9,
    }

    def test_build_plan_wraps_a_monitor_plan(self):
        plan = self.WORKLOAD.build_plan(self.SPEC, seed=3)
        assert isinstance(plan, EstimationPlan)
        assert plan.n_channels == 2
        assert plan.seed == 3
        assert plan.smooth is False
        assert plan.interval_level == 0.9

    def test_keep_traces_forced_on(self):
        plan = self.WORKLOAD.build_plan(self.SPEC, seed=0)
        assert plan.monitor.keep_traces

    def test_explicit_keep_traces_false_rejected(self):
        with pytest.raises(ValueError, match="keep_traces"):
            self.WORKLOAD.build_plan({**self.SPEC, "keep_traces": False},
                                     seed=0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            self.WORKLOAD.build_plan({**self.SPEC, "wat": 1}, seed=0)

    def test_run_scenario_summarizes_coverage(self):
        scenario = Scenario(workload="estimation", name="est", seed=7,
                            spec=self.SPEC)
        result = run_scenario(scenario)
        assert isinstance(result, ResultProtocol)
        assert "coverage" in result.summary()


class TestTherapyWorkload:
    WORKLOAD = workload_by_name("therapy")

    def spec(self, controller):
        return {
            "drug": "cyclosporine",
            "n_patients": 2,
            "cohort_seed": 7,
            "controller": controller,
            "n_doses": 2,
            "dose_interval_h": 6.0,
            "sample_period_s": 1800.0,
            "keep_traces": False,
        }

    def test_cohort_seed_is_part_of_the_artifact(self):
        spec = self.spec({"kind": "fixed", "dose_mg": 200.0})
        a = self.WORKLOAD.build_plan(spec, seed=1)
        b = self.WORKLOAD.build_plan(spec, seed=99)
        # Different scenario seeds, same sampled population.
        assert a.cohort == b.cohort
        c = self.WORKLOAD.build_plan({**spec, "cohort_seed": 8}, seed=1)
        assert a.cohort != c.cohort

    def test_controller_kinds(self):
        fixed = self.WORKLOAD.build_plan(
            self.spec({"kind": "fixed", "dose_mg": 200.0}), seed=0)
        assert isinstance(fixed.controller, FixedRegimenController)
        proportional = self.WORKLOAD.build_plan(
            self.spec({"kind": "proportional",
                       "initial_dose_mol": 2e-4}), seed=0)
        assert isinstance(proportional.controller,
                          ProportionalTroughController)
        bayesian = self.WORKLOAD.build_plan(
            self.spec({"kind": "bayesian", "n_grid": 21}), seed=0)
        assert isinstance(bayesian.controller, BayesianTroughController)
        assert bayesian.controller.n_grid == 21

    def test_controller_defaults_come_from_the_drug_catalog(self):
        from repro.pk import CYCLOSPORINE

        plan = self.WORKLOAD.build_plan(
            self.spec({"kind": "bayesian"}), seed=0)
        controller = plan.controller
        assert (controller.target_trough_molar
                == CYCLOSPORINE.window.target_trough_molar)
        assert (controller.prior.clearance_l_per_h
                == CYCLOSPORINE.population.typical_clearance_l_per_h)
        assert plan.window == CYCLOSPORINE.window

    def test_fixed_dose_mg_converts_through_molar_mass(self):
        from repro.pk import CYCLOSPORINE

        plan = self.WORKLOAD.build_plan(
            self.spec({"kind": "fixed", "dose_mg": 200.0}), seed=0)
        assert plan.controller.dose_mol == pytest.approx(
            CYCLOSPORINE.dose_mol_from_mg(200.0))

    def test_fixed_needs_exactly_one_dose_form(self):
        for controller in ({"kind": "fixed"},
                           {"kind": "fixed", "dose_mg": 1.0,
                            "dose_mol": 1e-4}):
            with pytest.raises(ValueError, match="exactly one"):
                self.WORKLOAD.build_plan(self.spec(controller), seed=0)

    def test_fixed_rejects_a_target_instead_of_ignoring_it(self):
        """A fixed regimen cannot act on a target; accepting one would
        silently discard what the user asked for."""
        with pytest.raises(ValueError, match="unknown keys"):
            self.WORKLOAD.build_plan(
                self.spec({"kind": "fixed", "dose_mg": 200.0,
                           "target_trough_molar": 3e-6}), seed=0)

    def test_bayesian_initial_dose_mg_converts(self):
        from repro.pk import CYCLOSPORINE

        plan = self.WORKLOAD.build_plan(
            self.spec({"kind": "bayesian", "initial_dose_mg": 250.0}),
            seed=0)
        assert plan.controller.initial_dose_mol == pytest.approx(
            CYCLOSPORINE.dose_mol_from_mg(250.0))

    def test_bayesian_rejects_both_initial_dose_forms(self):
        with pytest.raises(ValueError, match="at most one"):
            self.WORKLOAD.build_plan(
                self.spec({"kind": "bayesian", "initial_dose_mg": 250.0,
                           "initial_dose_mol": 2e-4}), seed=0)

    def test_unknown_controller_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown controller kind"):
            self.WORKLOAD.build_plan(self.spec({"kind": "pid"}), seed=0)

    def test_unknown_drug_rejected(self):
        spec = self.spec({"kind": "bayesian"})
        spec["drug"] = "unobtainium"
        with pytest.raises(KeyError):
            self.WORKLOAD.build_plan(spec, seed=0)

    def test_route_string_resolves(self):
        from repro.pk.models import Route

        spec = self.spec({"kind": "fixed", "dose_mg": 200.0})
        spec["route"] = "iv_bolus"
        assert self.WORKLOAD.build_plan(spec, seed=0).route is Route.IV_BOLUS


def _with(path: str, leaf: str, value) -> Scenario:
    """The checked-in example at ``path`` with one spec leaf replaced
    (``leaf`` is a dotted path under ``spec``)."""
    scenario = Scenario.load(EXAMPLES / path)
    spec = json.loads(json.dumps(scenario.spec))
    *parents, key = leaf.split(".")
    node = spec
    for parent in parents:
        node = node[parent]
    node[key] = value
    return Scenario(workload=scenario.workload, name=scenario.name,
                    seed=scenario.seed, spec=spec)


#: Every count the built-in decoders read, with the example it sits in.
COUNTS = [("calibration_panel.json", "n_blanks"),
          ("calibration_panel.json", "n_replicates"),
          ("glucose_week.json", "cohort.n_patients"),
          ("estimation_glucose_day.json", "cohort.n_patients"),
          ("cyclosporine_course.json", "n_patients"),
          ("cyclosporine_course.json", "n_doses"),
          ("cyclosporine_course.json", "cohort_seed")]


class TestStrictDecoding:
    """Counts are ints (not bools, floats or strings) in range, and a
    value too large to decode is a ``ValueError``, never an
    ``OverflowError`` or a long stall."""

    @pytest.mark.parametrize("path, leaf", COUNTS)
    @pytest.mark.parametrize("value", [2.7, 3.0, True, "3", None, 1e308])
    def test_a_count_of_another_type_is_refused(self, path, leaf, value):
        with pytest.raises(ValueError, match=leaf.split(".")[-1]):
            plan_for(_with(path, leaf, value))

    @pytest.mark.parametrize("path, leaf", [
        ("glucose_week.json", "cohort.n_patients"),
        ("estimation_glucose_day.json", "cohort.n_patients"),
        ("cyclosporine_course.json", "n_patients")])
    def test_cohort_is_bounded_before_sampling(self, path, leaf):
        plan_for(_with(path, leaf, MAX_COHORT))
        for value in (MAX_COHORT + 1, 50_000, 10**308):
            began = time.perf_counter()
            with pytest.raises(ValueError, match=str(MAX_COHORT)):
                plan_for(_with(path, leaf, value))
            assert time.perf_counter() - began < 0.5

    @pytest.mark.parametrize("path, leaf", [
        ("calibration_panel.json", "n_blanks"),
        ("calibration_panel.json", "n_replicates"),
        ("calibration_panel.json", "step_duration_s"),
        ("cyclosporine_course.json", "n_doses"),
        ("glucose_week.json", "duration_h"),
        ("estimation_glucose_day.json", "duration_h")])
    def test_work_is_bounded_at_decode(self, path, leaf):
        """A spec asking for more than MAX_READINGS readings is refused
        while it decodes, before anything is compiled or allocated."""
        began = time.perf_counter()
        with pytest.raises(ValueError, match="readings"):
            plan_for(_with(path, leaf, 10**9))
        assert time.perf_counter() - began < 0.5

    @pytest.mark.parametrize("leaf", ["dose_interval_h", "sample_period_s"])
    def test_an_overflowing_period_is_a_value_error(self, leaf):
        with pytest.raises(ValueError):
            plan_for(_with("cyclosporine_course.json", leaf, 1e308))


class TestResultProtocol:
    def test_every_workload_result_implements_the_contract(self):
        scenarios = [
            Scenario(workload="calibration", name="cal", seed=1,
                     spec={"sensors": ["glucose/this-work"],
                           "n_blanks": 2, "n_replicates": 1}),
            Scenario(workload="monitor", name="mon", seed=1,
                     spec=TestMonitorWorkload.SPEC),
            Scenario(workload="therapy", name="ther", seed=1,
                     spec={"drug": "cyclosporine", "n_patients": 2,
                           "cohort_seed": 7,
                           "controller": {"kind": "fixed",
                                          "dose_mg": 200.0},
                           "n_doses": 2, "dose_interval_h": 6.0,
                           "sample_period_s": 1800.0,
                           "keep_traces": False}),
            Scenario(workload="estimation", name="est", seed=1,
                     spec=TestEstimationWorkload.SPEC),
        ]
        import json

        for scenario in scenarios:
            result = run_scenario(scenario)
            assert isinstance(result, ResultProtocol)
            assert scenario.workload in result.summary_row()["workload"]
            assert result.summary().strip()
            json.dumps(result.to_dict())  # must be JSON-serializable

    def test_batch_scalar_reference_is_bit_identical(self):
        scenario = Scenario(
            workload="calibration", name="cal", seed=5,
            spec={"sensors": ["glucose/this-work"], "n_blanks": 2,
                  "n_replicates": 2})
        batch = run_scenario(scenario)
        scalar = run_scenario(scenario, scalar=True)
        np.testing.assert_array_equal(batch.flat_values(),
                                      scalar.flat_values())
