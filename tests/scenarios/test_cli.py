"""Tests for the python -m repro scenario CLI."""

import json

import pytest

from repro.scenarios import Scenario
from repro.scenarios.cli import main


@pytest.fixture()
def scenario_file(tmp_path):
    return Scenario(
        workload="calibration", name="cli-smoke", seed=7,
        spec={"sensors": ["glucose/this-work"], "n_blanks": 3,
              "n_replicates": 1},
    ).save(tmp_path / "scenario.json")


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert repro.__version__ in output
        assert output.startswith("repro ")


class TestList:
    def test_lists_every_workload(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("calibration", "estimation", "monitor", "therapy"):
            assert name in output


class TestListJson:
    def test_json_rows_are_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = {row["name"]: row
                for row in json.loads(capsys.readouterr().out)}
        assert set(rows) >= {"calibration", "estimation", "monitor",
                             "therapy"}
        for row in rows.values():
            assert set(row) == {"name", "plan_type", "doc", "streaming"}
            assert row["doc"]

    def test_streaming_flag_tracks_snapshot_support(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = {row["name"]: row["streaming"]
                for row in json.loads(capsys.readouterr().out)}
        assert rows["monitor"] is True
        assert rows["estimation"] is True
        assert rows["calibration"] is False
        assert rows["therapy"] is False


class TestDescribeJson:
    def test_json_payload_carries_docs_and_example(self, capsys):
        assert main(["describe", "monitor", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "monitor"
        assert payload["streaming"] is True
        assert "spec fields" in payload["describe"]
        assert isinstance(payload["example_spec"], dict)
        # the example spec must actually be runnable
        from repro.scenarios import Scenario, run_scenario

        scenario = Scenario(workload="monitor", name="example", seed=1,
                            spec=payload["example_spec"])
        assert run_scenario(scenario).mard.shape[0] >= 1

    def test_unknown_workload_returns_json_error(self, capsys):
        assert main(["describe", "petri-dish", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert "petri-dish" in payload["error"]


class TestDescribe:
    @pytest.mark.parametrize("name", ["calibration", "estimation",
                                      "monitor", "therapy"])
    def test_describe_prints_example_spec(self, capsys, name):
        assert main(["describe", name]) == 0
        output = capsys.readouterr().out
        assert "example spec" in output
        assert "spec fields" in output

    def test_unknown_workload_fails_with_registry_listing(self, capsys):
        assert main(["describe", "petri-dish"]) == 2
        assert "registered" in capsys.readouterr().out


class TestRun:
    def test_run_prints_summary(self, capsys, scenario_file):
        assert main(["run", str(scenario_file)]) == 0
        output = capsys.readouterr().out
        assert "[calibration] cli-smoke" in output
        assert "uA mM^-1 cm^-2" in output

    def test_run_writes_replayable_artifact(self, capsys, tmp_path,
                                            scenario_file):
        out = tmp_path / "results.json"
        assert main(["run", str(scenario_file), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"scenario", "result"}
        # The exported envelope loads straight back as a scenario.
        replay = Scenario.from_dict(payload["scenario"])
        assert replay.seed == 7
        assert payload["result"]["workload"] == "calibration"

    def test_seed_override_lands_in_the_artifact(self, capsys, tmp_path,
                                                 scenario_file):
        out = tmp_path / "results.json"
        assert main(["run", str(scenario_file), "--seed", "11",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["scenario"]["seed"] == 11

    def test_unseeded_scenario_exports_a_replayable_artifact(
            self, capsys, tmp_path):
        """An unseeded file gets a materialized seed: re-running the
        exported scenario must reproduce the exported result exactly."""
        unseeded = Scenario(
            workload="calibration", name="unseeded",
            spec={"sensors": ["glucose/this-work"], "n_blanks": 3,
                  "n_replicates": 1},
        ).save(tmp_path / "unseeded.json")
        out = tmp_path / "results.json"
        assert main(["run", str(unseeded), "--out", str(out),
                     "--traces"]) == 0
        payload = json.loads(out.read_text())
        assert isinstance(payload["scenario"]["seed"], int)
        replay_file = tmp_path / "replay.json"
        Scenario.from_dict(payload["scenario"]).save(replay_file)
        out2 = tmp_path / "replay-results.json"
        assert main(["run", str(replay_file), "--out", str(out2),
                     "--traces"]) == 0
        assert json.loads(out2.read_text()) == payload

    def test_scalar_path_matches_batch_path(self, capsys, tmp_path,
                                            scenario_file):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["run", str(scenario_file), "--out", str(out_a), "--traces"])
        main(["run", str(scenario_file), "--scalar",
              "--out", str(out_b), "--traces"])
        assert json.loads(out_a.read_text()) == json.loads(out_b.read_text())

    def test_missing_scenario_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["run", str(tmp_path / "nope.json")])

    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestTelemetryFlags:
    def test_run_with_telemetry_prints_span_summary(self, capsys,
                                                    scenario_file):
        assert main(["run", str(scenario_file), "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "core.execute" in out
        assert "metrics summary" in out
        assert "repro_core_chunks_total" in out

    def test_run_without_telemetry_prints_no_summary(self, capsys,
                                                     scenario_file):
        assert main(["run", str(scenario_file)]) == 0
        assert "telemetry summary" not in capsys.readouterr().out

    def test_trace_out_writes_loadable_jsonl(self, capsys, tmp_path,
                                             scenario_file):
        from repro.telemetry import read_jsonl

        trace = tmp_path / "trace.jsonl"
        assert main(["run", str(scenario_file),
                     "--trace-out", str(trace)]) == 0
        events = read_jsonl(trace)
        assert any(e["type"] == "span" and e["name"] == "core.execute"
                   for e in events)
        assert {e["type"] for e in events} == {"span"}

    def test_perfetto_out_writes_loadable_trace(self, capsys, tmp_path,
                                                scenario_file):
        trace = tmp_path / "trace.json"
        assert main(["run", str(scenario_file),
                     "--perfetto-out", str(trace)]) == 0
        loaded = json.loads(trace.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in loaded["traceEvents"])

    def test_telemetry_flags_do_not_change_results(self, capsys,
                                                   tmp_path,
                                                   scenario_file):
        plain = tmp_path / "plain.json"
        instrumented = tmp_path / "instrumented.json"
        main(["run", str(scenario_file), "--out", str(plain)])
        main(["run", str(scenario_file), "--telemetry",
              "--out", str(instrumented)])
        assert json.loads(plain.read_text()) \
            == json.loads(instrumented.read_text())


class TestLoggingFlags:
    def teardown_method(self):
        import logging

        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            root.removeHandler(handler)
        root.setLevel(logging.NOTSET)

    def test_verbose_flag_sets_info_level(self, capsys, scenario_file):
        import logging

        assert main(["-v", "run", str(scenario_file)]) == 0
        assert logging.getLogger("repro").level == logging.INFO

    def test_double_verbose_sets_debug_level(self, capsys,
                                             scenario_file):
        import logging

        assert main(["-vv", "run", str(scenario_file)]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_log_level_flag_wins_over_verbosity(self, capsys,
                                                scenario_file):
        import logging

        assert main(["--log-level", "error", "-vv",
                     "run", str(scenario_file)]) == 0
        assert logging.getLogger("repro").level == logging.ERROR

    def test_default_level_is_warning(self, capsys, scenario_file):
        import logging

        assert main(["run", str(scenario_file)]) == 0
        assert logging.getLogger("repro").level == logging.WARNING

    def test_console_lines_carry_the_trace_id(self):
        import logging

        from repro.scenarios.cli import configure_logging
        from repro.telemetry import trace_context

        configure_logging("info")
        handler, = logging.getLogger("repro").handlers
        record = logging.LogRecord("repro.serve.server", logging.INFO,
                                   __file__, 1, "shard done", None, None)
        with trace_context("0123456789abcdef"):
            assert handler.filter(record)
        assert handler.format(record).endswith(
            "[0123456789abcdef]: shard done")


class TestModuleEntryPoint:
    def test_python_dash_m_repro_wires_to_the_cli(self):
        import repro.__main__ as entry

        assert entry.main is main
