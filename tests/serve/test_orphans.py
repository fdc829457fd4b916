"""A server killed outright must not leave its job workers running.

``kill -9`` of ``python -m repro serve`` runs none of its shutdown code,
so its pre-forked job workers are orphaned.  Each must see its parent
gone and exit on its own instead of waiting for work forever.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _server_env() -> dict:
    """Subprocess env with ``repro`` importable from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _children(pid: int) -> "set[int]":
    """Pids of the direct children of ``pid`` (``pgrep -P``)."""
    found = subprocess.run(["pgrep", "-P", str(pid)],
                           capture_output=True, text=True)
    return {int(line) for line in found.stdout.split()}


def _running(pid: int) -> bool:
    """Whether process ``pid`` still runs (a zombie does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists()
                    or shutil.which("pgrep") is None,
                    reason="reads process states from /proc, uses pgrep")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_server_is_killed(self):
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            env=_server_env(), cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        workers: "set[int]" = set()
        try:
            deadline = time.monotonic() + 60.0
            while len(workers) < 2:
                assert server.poll() is None, "server exited at start"
                assert time.monotonic() < deadline, \
                    "server did not fork its job workers"
                time.sleep(0.05)
                workers = _children(server.pid)
            server.kill()
            server.wait()
            deadline = time.monotonic() + 10.0
            while any(map(_running, workers)):
                assert time.monotonic() < deadline, \
                    "orphaned job workers did not exit"
                time.sleep(0.02)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)
