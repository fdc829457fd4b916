"""Every public name in ``src/repro`` is reached.

The names are the public top-level functions, classes and assigned
constants, and the public methods, properties, classmethods and
staticmethods of public classes.  A name is reached when a root names
it (``examples/``, ``benchmarks/``, ``perfbench/``, ``docs/`` or
``.github/``), when library code outside any public definition names
it, or when the body of a reached definition names it.  A class's body
is its text minus its public members; a member's body is its own
``def`` with decorators and docstring; a constant's body is its
assignment, whose value counts as a use since it runs at import.  A
definition's own body, module docstrings, ``__init__`` re-exports,
``__all__`` lists and ``tests/`` do not count, so code only its tests
call is reported, with all it alone calls.

Matching is by word: a member reached through ``getattr`` or a string
is missed, and any use of a word reaches every definition of that name,
so a dead method that shares its name with a live one (``summary``,
``run_chunk``) is not reported.  The check errs towards keeping code.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("examples", "benchmarks", "perfbench", "docs", ".github")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)

# Why a definition no entry point runs is kept.  Kind 1 is reachable
# from a scenario spec, a CLI option or a runtime condition that no root
# in tests/reach_probe.py exercises; kind 2 is run only by tests, by a
# CI step the probe leaves out, or by documented API.
CONTRACT = ("execution-contract suite API "
            "(tests/engine/test_core_contract.py)")
ORACLE = ("scalar reference the contract suite holds the estimation "
          "kernels to")
SNAPSHOT = ("stream suspend/resume, called in docs/serving.md "
            "(tests/serve/test_snapshot*.py)")
PERFBENCH = ("wrapped by name in perfbench/tracing.py; bound there until "
             "ROADMAP item 5's perfbench change")
ROUTES = ("PKParams.unit_response dispatches on the therapy spec's route "
          "and the drug's compartments")
RETRY = "shard failure and retry path (tests/campaigns/test_retry.py)"
MUX = ("shared-readout MultiTargetPlatform, paper-map's multiplexed chip "
       "(tests/core/test_platform_multiplexed.py)")
CNT = ("paper-map's CNT electron-transfer claim, section 2.2 "
       "(tests/nano/test_cnt.py)")
FRAMING = "HTTP error path of a malformed request (tests/serve)"
NULL = "disabled-registry side of the metrics API (tests/telemetry)"
HOOK = "kernel cache test hook"

#: Definitions kept although no entry point runs them, each with the
#: reason; ``tests/reach_probe.py`` reports any other.  A member is
#: keyed ``Class.member``.
ALLOWED = {
    # -- kind 1 ----------------------------------------------------------
    "one_compartment_bolus_batch": ROUTES,
    "one_compartment_infusion_batch": ROUTES,
    "_two_compartment_exponents": ROUTES,
    "two_compartment_bolus_batch": ROUTES,
    "two_compartment_oral_batch": ROUTES,
    "two_compartment_infusion_batch": ROUTES,
    "DrugSpec.dose_mol_from_mg": "therapy spec's dose_mg / initial_dose_mg",
    "TherapyKernels.describe_metrics": "a therapy run with metrics on",
    "StreamSession.remaining": "a push with no count; a finished stream",
    "ChannelMultiplexer.__post_init__": MUX,
    "ChannelMultiplexer.validate_channel": MUX,
    "ChannelMultiplexer.observed_current": MUX,
    "thermal_current_noise_density": "noise of a TIA built without a model",
    "_line_too_long": FRAMING,
    "discard_unread": FRAMING,
    "_read_to_eof": FRAMING,
    "_dead_workers": "a job worker that dies (tests/serve)",
    "ReproServer._evict_idle_streams": "a stream idle past its timeout",
    "_close_and_exit": "a worker orphaned by CI's campaign kill step",
    # -- kind 2 ----------------------------------------------------------
    "assert_fields_match": CONTRACT, "check_chunk_invariance": CONTRACT,
    "check_scalar_equivalence": CONTRACT,
    "check_deterministic_replay": CONTRACT, "_compare_field": CONTRACT,
    "KernelSet.with_chunk_samples": CONTRACT,
    "CalibrationKernels.contract_plan": CONTRACT,
    "CalibrationKernels.contract_fields": CONTRACT,
    "CalibrationKernels.with_chunk_samples": CONTRACT,
    "MonitorKernels.contract_plan": CONTRACT,
    "MonitorKernels.contract_fields": CONTRACT,
    "TherapyKernels.contract_plan": CONTRACT,
    "TherapyKernels.contract_fields": CONTRACT,
    "EstimationKernels.contract_plan": CONTRACT,
    "EstimationKernels.contract_fields": CONTRACT,
    "EstimationKernels.with_chunk_samples": CONTRACT,
    "EstimationKernels.run_scalar": ORACLE,
    "_run_estimation_scalar": ORACLE, "_observation_inputs": ORACLE,
    "decode_array": SNAPSHOT, "decode_rng": SNAPSHOT,
    "require_keys": SNAPSHOT, "require_list": SNAPSHOT,
    "require_snapshot": SNAPSHOT,
    "MonitorKernels.restore_state": SNAPSHOT,
    "EstimationKernels.restore_state": SNAPSHOT,
    "StreamSession.restore": SNAPSHOT,
    "ou_process_batch": PERFBENCH, "digitize_rows": PERFBENCH,
    "_retry_backoff_s": RETRY, "ArtifactStore.failed_indices": RETRY,
    "ArtifactStore.record_failure": RETRY,
    "ArtifactStore.reset_failed": RETRY,
    "CampaignSpec.shard": "one shard, that shards() and the store's "
                          "shard_scenario are checked against",
    "BatchPlan.cells": "canonical cell order the scalar pipeline in "
                       "tests/engine/test_runner.py follows",
    "run_calibration_batch": "README quick start",
    "set_global_seed": "README and docs/index.md",
    "Scenario.save": "docs/scenarios.md; the file Scenario.load reads",
    "read_jsonl": "reads JsonlSink traces back to check them",
    "_NullSeries.labels": NULL, "NullMetricsRegistry.counter": NULL,
    "NullMetricsRegistry.gauge": NULL, "NullMetricsRegistry.histogram": NULL,
    "PopulationModel.monomorphic": "single-phenotype strata of the "
                                   "therapy gates in docs/therapy.md",
    "time_in_range": "whole-trace form of the therapy engine's streamed "
                     "count (tests/engine/test_therapy.py)",
    "fraction_below_window": "whole-trace form of the streamed count",
    "fraction_above_window": "whole-trace form of the streamed count",
    "Interferent.current_a": "paper-map's interference in real fluids: "
                             "Nafion rejection (tests/bio)",
    "RandlesCircuit.impedance": "impedimetric transduction, section 2.3",
    "RandlesCircuit.spectrum": "impedimetric transduction, section 2.3",
    "conductance_quantum": CNT, "CarbonNanotube.ballistic_conductance_s": CNT,
    "CarbonNanotube.resistance_ohm": CNT,
    "ImmobilizedLayer.response_time_s": "section 1's miniaturization "
                                        "claim: thin films respond fast",
    "NoiseModel.sample": "the 1-D draw TransimpedanceAmplifier.amplify "
                         "calls on a 1-D trace",
    "michaelis_menten_rate": "reference for ping_pong_rate",
    "peak_separation_reversible": "reference for the CV simulator",
    "moving_average": "comparator for savitzky_golay",
    "slope_ampere_per_molar": "inverse of sensitivity_paper_from_slope",
    "linear_range_upper": "inverse km_for_linear_range is checked against",
    "cottrell_charge": "integral of cottrell_current",
    "fractional_deviation_from_linearity": "reference for linear_range_upper",
    "cache_info": HOOK, "clear_caches": HOOK,
    "AVOGADRO": "reference the derived constants are checked against",
    "ZERO_CELSIUS": "reference the derived constants are checked against",
    "SampleMatrix.sensitivity_retention_batch": "fouling factor the fused "
                                                "DriftBudget exponent is "
                                                "checked against",
    "SampleMatrix.sensitivity_retention": "scalar form of that factor",
    "BUFFER": "clean calibration matrix tests hold serum against",
}


def _is_not_a_use(node: ast.stmt, path: Path) -> bool:
    """A docstring, an ``__init__`` re-export or an ``__all__`` list."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return True
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return path.name == "__init__.py"
    return isinstance(node, ast.Assign) and any(
        getattr(target, "id", None) == "__all__" for target in node.targets)


def _span(node: ast.stmt) -> tuple[int, int]:
    """0-based first line (decorators included) and end line of ``node``."""
    decorators = getattr(node, "decorator_list", [])
    first = min([node.lineno] + [d.lineno for d in decorators])
    return first - 1, node.end_lineno


def _assigned(node: ast.stmt) -> list[str]:
    """Public names a top-level assignment binds (``__all__`` excluded)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return []
    names = [element.id for target in targets
             for element in getattr(target, "elts", [target])
             if isinstance(element, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _definitions(lines: list[str], node: ast.stmt):
    """``(qualified name, word, body)`` for a public definition and its
    public members; a class's body leaves its public members out."""
    first, last = _span(node)
    if not isinstance(node, ast.ClassDef):
        yield node.name, node.name, "\n".join(lines[first:last])
        return
    kept = list(range(first, last))
    for member in node.body:
        if isinstance(member, FUNCTIONS) and not member.name.startswith("_"):
            start, end = _span(member)
            kept = [i for i in kept if not start <= i < end]
            yield (f"{node.name}.{member.name}", member.name,
                   "\n".join(lines[start:end]))
    yield node.name, node.name, "\n".join(lines[i] for i in kept)


def unreached(repo: Path = REPO, allowed: dict = ALLOWED) -> list[str]:
    roots = [path.read_text(errors="ignore")
             for folder in ROOTS
             for path in (repo / folder).rglob("*") if path.is_file()]
    bodies: dict[str, list[str]] = {}
    names: dict[str, str] = {}
    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                for name, word, text in _definitions(lines, node):
                    bodies.setdefault(word, []).append(text)
                    names[name] = word
            elif _assigned(node) and path.name != "__init__.py":
                # The value runs at import, so it is a use; the name is
                # a definition.
                text = "\n".join(lines[node.lineno - 1:node.end_lineno])
                roots.append(ast.get_source_segment(source, node.value))
                for name in _assigned(node):
                    bodies.setdefault(name, []).append(text)
                    names[name] = name
            elif not _is_not_a_use(node, path):
                first, last = _span(node)
                roots.append("\n".join(lines[first:last]))
    reached: set[str] = set()
    frontier = roots + [text for name in allowed if name in names
                        for text in bodies[names[name]]]
    while frontier:
        new = set(re.findall(r"\w+", "\n".join(frontier))) & bodies.keys()
        new -= reached
        reached |= new
        frontier = [text for word in new for text in bodies[word]]
    return sorted(name for name, word in names.items()
                  if word not in reached and name not in allowed)


def _defined(repo: Path = REPO) -> set[str]:
    """Every top-level function, class and assigned name, and every
    ``Class.member``, public or not."""
    names = set()
    for path in (repo / "src" / "repro").rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            names.update(_assigned(node) + [
                target.id for target in getattr(node, "targets", [])
                if isinstance(target, ast.Name)])
            if isinstance(node, DEFINITIONS):
                names.add(node.name)
                names.update(f"{node.name}.{member.name}"
                             for member in getattr(node, "body", [])
                             if isinstance(member, FUNCTIONS))
    return names


def test_every_public_name_is_reached():
    names = unreached()
    assert not names, f"reached only from tests: {', '.join(names)}"


def test_members_count_as_names(tmp_path):
    """A dead method, property or module constant is reported; one
    reached from CI or through a reached member is not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "sensor.py").write_text(
        "GAIN = 2\n"
        "UNUSED_LIMIT = 9\n"
        "\n"
        "class Sensor:\n"
        "    limit = 3\n"
        "\n"
        "    def read(self):\n"
        "        return self.scale() * GAIN\n"
        "\n"
        "    def scale(self):\n"
        "        return self.limit\n"
        "\n"
        "    def recalibrate(self):\n"
        "        return 0\n"
        "\n"
        "    @property\n"
        "    def span(self):\n"
        "        return 1\n"
        "\n"
        "    def smoke_status(self):\n"
        "        return 2\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "print(Sensor().read())\n")
    (tmp_path / ".github" / "workflows").mkdir(parents=True)
    (tmp_path / ".github" / "workflows" / "ci.yml").write_text(
        "run: python -c 'Sensor().smoke_status()'\n")
    assert unreached(tmp_path, allowed={}) == [
        "Sensor.recalibrate", "Sensor.span", "UNUSED_LIMIT"]


def test_allowed_names_exist():
    """The table cannot outlive the code it keeps."""
    stale = sorted(set(ALLOWED) - _defined())
    assert not stale, f"ALLOWED names no definition: {', '.join(stale)}"
