"""The ``python -m repro campaign`` surface, driven in-process.

Covers the four subcommands end to end — run, status, resume, export —
plus the usage-error paths (missing store, pre-existing store), which
must exit 2 with a message instead of a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.campaigns import ArtifactStore
from repro.scenarios.cli import main


@pytest.fixture()
def spec_file(small_campaign, tmp_path):
    """The small campaign saved as a CLI-consumable JSON file."""
    return small_campaign.save(tmp_path / "fleet.json")


class TestRun:
    def test_run_executes_all_shards(self, spec_file, small_campaign,
                                     tmp_path, capsys):
        store = tmp_path / "fleet.sqlite"
        rc = main(["campaign", "run", str(spec_file),
                   "--store", str(store), "--workers", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"ran {small_campaign.n_shards} of " \
               f"{small_campaign.n_shards} shards" in out
        with ArtifactStore.open(store) as opened:
            assert opened.counts()["done"] == small_campaign.n_shards

    def test_run_refuses_existing_store(self, spec_file, tmp_path,
                                        capsys):
        store = tmp_path / "fleet.sqlite"
        assert main(["campaign", "run", str(spec_file),
                     "--store", str(store)]) == 0
        capsys.readouterr()
        rc = main(["campaign", "run", str(spec_file),
                   "--store", str(store)])
        assert rc == 2
        assert "resume" in capsys.readouterr().out

    def test_run_missing_spec_file(self, tmp_path, capsys):
        rc = main(["campaign", "run", str(tmp_path / "nope.json"),
                   "--store", str(tmp_path / "s.sqlite")])
        assert rc == 2
        capsys.readouterr()


class TestStatusExportResume:
    @pytest.fixture()
    def finished_store(self, spec_file, tmp_path, capsys):
        store = tmp_path / "fleet.sqlite"
        main(["campaign", "run", str(spec_file), "--store", str(store)])
        capsys.readouterr()
        return store

    def test_status_reports_counts(self, finished_store, capsys):
        assert main(["campaign", "status", str(finished_store)]) == 0
        out = capsys.readouterr().out
        assert "done: 8" in out
        assert "progress: 8/8" in out

    def test_export_to_file_and_stdout_agree(self, finished_store,
                                             tmp_path, capsys):
        out_file = tmp_path / "rows.json"
        assert main(["campaign", "export", str(finished_store),
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["campaign", "export", str(finished_store)]) == 0
        stdout_text = capsys.readouterr().out
        assert stdout_text == out_file.read_text()
        payload = json.loads(stdout_text)
        assert len(payload["shards"]) == 8
        assert all(row["status"] == "done" for row in payload["shards"])

    @pytest.mark.parametrize("command", ["status", "export", "report"])
    def test_read_commands_leave_the_store_one_file(self, finished_store,
                                                     capsys, command):
        assert main(["campaign", command, str(finished_store)]) == 0
        capsys.readouterr()
        assert sorted(path.name for path in finished_store.parent.glob(
            f"{finished_store.name}*")) == [finished_store.name]

    def test_resume_finished_store_is_no_op(self, finished_store,
                                            capsys):
        assert main(["campaign", "resume", str(finished_store)]) == 0
        assert "ran 0 of 8 shards" in capsys.readouterr().out

    def test_status_missing_store_exits_2(self, tmp_path, capsys):
        rc = main(["campaign", "status",
                   str(tmp_path / "missing.sqlite")])
        assert rc == 2
        assert "no campaign store" in capsys.readouterr().out

    def test_help_lists_campaign_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("run", "status", "resume", "export"):
            assert command in out
