"""Which functions in ``src/repro`` does no entry point run?

    python tests/reach_probe.py

Runs every root below with a profiler on every thread of every Python
process it starts, forked and spawned workers included, and prints each
function or method of ``src/repro`` that none of them called and that
``ALLOWED`` (``tests/test_reachability.py``) does not keep.  The report
does not gate: the exit status is 0 whatever it finds, and a root that
exits non-zero (a timing gate slowed by the profiler, say) is listed but
its calls still count.

How it sees workers: a generated ``sitecustomize.py``, first on
``PYTHONPATH``, installs ``sys.setprofile`` and ``threading.setprofile``
in every interpreter the roots start.  The first call of each function
is appended at once, unbuffered, to a per-pid file, so a worker that
leaves through ``os._exit`` loses nothing; a forked child keeps the
profiler of the thread that forked it.  A site's own
``sitecustomize`` is shadowed while the probe runs.

A function is a ``def`` at module level or in a class body (nested
classes too); a closure counts as part of the function around it.  A
declaration whose body is only a docstring, ``...``, ``pass`` or
``raise NotImplementedError`` is an interface, not code, and is not
counted.  Lines include decorators.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

SITECUSTOMIZE = '''\
import os
import sys
import threading

_PACKAGE, _OUT = {package!r}, {out!r}
_seen = set()
_file = [None, None]


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if not code.co_filename.startswith(_PACKAGE):
        return
    pid = os.getpid()
    if _file[0] != pid:
        _file[:] = [pid, os.open(os.path.join(_OUT, f"{{pid}}.calls"),
                                 os.O_WRONLY | os.O_CREAT | os.O_APPEND)]
    os.write(_file[1], f"{{code.co_filename}}:{{code.co_firstlineno}}\\n"
             .encode())


sys.setprofile(_profile)
threading.setprofile(_profile)
'''

#: CI's serve smoke in brief: boot ``python -m repro serve``, run a job
#: and a stream through the client, scrape and parse the metrics, ask
#: for an id the server never issued, then shut down with SIGINT.
SERVE = """\
import signal, socket, subprocess, sys
from repro.scenarios import Scenario
from repro.serve import ServeClient, ServeError
from repro.telemetry import parse_prometheus

with socket.socket() as free:
    free.bind(("127.0.0.1", 0))
    port = free.getsockname()[1]
server = subprocess.Popen([sys.executable, "-m", "repro", "serve",
                           "--port", str(port), "--trace-out", sys.argv[1]])
try:
    client = ServeClient("127.0.0.1", port)
    client.wait_until_healthy()
    scenario = Scenario.load(
        "examples/scenarios/estimation_glucose_day.json").to_dict()
    job = client.submit(scenario)["job_id"]
    client.wait_for_job(job)
    client.result(job, traces=True)
    stream = client.create_stream(scenario)["stream_id"]
    client.push_readings(stream, count=12)
    client.stream_status(stream)
    client.delete_stream(stream)
    parse_prometheus(client.metrics())
    try:
        client.status("job-9999")
    except ServeError:
        pass
    client.close()
finally:
    server.send_signal(signal.SIGINT)
    server.wait(timeout=60)
"""


@dataclass(frozen=True)
class Function:
    path: Path
    name: str  # ``function`` or ``Class.member``
    first: int  # 1-based, decorators included
    lineno: int  # the ``def`` line
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _is_stub(node: ast.FunctionDef) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    (only,) = body
    if isinstance(only, ast.Pass):
        return True
    if isinstance(only, ast.Expr) and isinstance(only.value, ast.Constant):
        return only.value.value is Ellipsis
    if isinstance(only, ast.Raise) and only.exc is not None:
        exc = only.exc.func if isinstance(only.exc, ast.Call) else only.exc
        return getattr(exc, "id", None) == "NotImplementedError"
    return False


def _walk(path: Path, body: list, prefix: str):
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _walk(path, node.body, f"{prefix}{node.name}.")
        elif isinstance(node, FUNCTIONS) and not _is_stub(node):
            first = min([node.lineno] +
                        [d.lineno for d in node.decorator_list])
            yield Function(path, prefix + node.name, first, node.lineno,
                           node.end_lineno)


def inventory(package: Path) -> list[Function]:
    """Every counted function under ``package``, in file order."""
    return [function
            for path in sorted(package.rglob("*.py"))
            for function in _walk(path, ast.parse(path.read_text()).body,
                                  "")]


def run_roots(roots, package: Path, out: Path, cwd: Path = REPO,
              pythonpath: tuple = (), timeout: float = 900.0):
    """Run each ``(label, argv, env)`` root under the profiler; return
    ``(label, exit status, seconds)`` per root."""
    site = out / "site"
    site.mkdir(parents=True, exist_ok=True)
    calls = out / "calls"
    calls.mkdir(exist_ok=True)
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        package=str(package.resolve()) + os.sep, out=str(calls)))
    path = os.pathsep.join([str(site), *map(str, pythonpath)])
    statuses = []
    for label, argv, env in roots:
        start = time.perf_counter()
        try:
            status = subprocess.run(
                argv, cwd=cwd, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=timeout,
                env={**os.environ, **env, "PYTHONPATH": path}).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
        statuses.append((label, status, time.perf_counter() - start))
    return statuses


def called(out: Path) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object any process called."""
    seen = set()
    for record in (out / "calls").glob("*.calls"):
        for line in record.read_text().splitlines():
            filename, _, lineno = line.rpartition(":")
            seen.add((filename, int(lineno)))
    return seen


def never_run(functions: list[Function], seen) -> list[Function]:
    """The functions whose code no process called.  A decorated
    function's code starts at its first decorator on some Pythons and at
    its ``def`` on others, so either line counts."""
    return [f for f in functions
            if (str(f.path.resolve()), f.first) not in seen
            and (str(f.path.resolve()), f.lineno) not in seen]


def roots(tmp: Path) -> list[tuple[str, list[str], dict]]:
    """The entry points whose calls count; CI runs each of them."""
    py = sys.executable
    quiet = {"MPLBACKEND": "Agg", "FIGURE_DIR": str(tmp / "figures"),
             "BENCH_JSON_DIR": str(tmp / "bench")}
    (tmp / "figures").mkdir(exist_ok=True)
    (tmp / "bench").mkdir(exist_ok=True)
    found = [(f"examples/{path.name}", [py, str(path)], quiet)
             for path in sorted((REPO / "examples").glob("*.py"))]
    found += [("repro.experiments", [py, "-m", "repro.experiments"], {}),
              ("repro.experiments --report",
               [py, "-m", "repro.experiments", "--report"], {}),
              ("repro list --json", [py, "-m", "repro", "list", "--json"],
               {})]
    found += [(f"repro describe {workload}",
               [py, "-m", "repro", "describe", workload], {})
              for workload in ("calibration", "monitor", "therapy",
                               "estimation")]
    for scenario in sorted((REPO / "examples" / "scenarios").glob("*.json")):
        found.append((f"repro run {scenario.name}",
                      [py, "-m", "repro", "run", str(scenario),
                       "--out", str(tmp / scenario.name)], {}))
    found.append(("repro run calibration_panel.json --scalar",
                  [py, "-m", "repro", "run",
                   "examples/scenarios/calibration_panel.json", "--scalar",
                   "--out", str(tmp / "calibration_scalar.json")], {}))
    found.append(("repro run glucose_week.json --seed --trace-out "
                  "--perfetto-out",
                  [py, "-m", "repro", "run",
                   "examples/scenarios/glucose_week.json", "--seed", "11",
                   "--trace-out", str(tmp / "run_trace.jsonl"),
                   "--perfetto-out", str(tmp / "run_perfetto.json")], {}))
    store = str(tmp / "campaign.sqlite")
    instrumented = {"REPRO_TELEMETRY": "1", "REPRO_METRICS": "1",
                    "REPRO_TELEMETRY_TRACE": str(tmp / "trace.jsonl")}
    campaign = [
        ("-v campaign run", ["-v", "campaign", "run",
                             "examples/campaigns/glucose_fleet.json",
                             "--store", store, "--workers", "2"]),
        ("campaign resume", ["campaign", "resume", store, "--workers", "2"]),
        ("campaign status", ["campaign", "status", store]),
        ("campaign report --perfetto-out",
         ["campaign", "report", store, "--perfetto-out",
          str(tmp / "perfetto.json")]),
        ("campaign report --json", ["campaign", "report", store, "--json"]),
        ("campaign export", ["campaign", "export", store, "--out",
                             str(tmp / "export.json")]),
    ]
    found += [(f"repro {label}", [py, "-m", "repro", *args], instrumented)
              for label, args in campaign]
    found += [("repro telemetry summary",
               [py, "-m", "repro", "telemetry", "summary", store], {}),
              ("repro telemetry summary --json",
               [py, "-m", "repro", "telemetry", "summary", store, "--json"],
               {})]
    found.append(("repro serve", [py, "-c", SERVE,
                                  str(tmp / "serve_trace.jsonl")], {}))
    benches = sorted(path.name
                     for path in (REPO / "benchmarks").glob("bench_*.py"))
    found += [(f"benchmarks/{name}",
               [py, "-m", "pytest", f"benchmarks/{name}", "-q",
                "-p", "no:cacheprovider", "--benchmark-disable"], quiet)
              for name in benches]
    found.append(("perfbench/test_smoke.py",
                  [py, "-m", "pytest", "perfbench/test_smoke.py", "-q",
                   "-p", "no:cacheprovider"], {}))
    return found


def main() -> int:
    sys.path.insert(0, str(REPO))
    from tests.test_reachability import ALLOWED

    package = REPO / "src" / "repro"
    functions = inventory(package)
    with tempfile.TemporaryDirectory(prefix="reach-probe-") as tmp:
        out = Path(tmp)
        statuses = run_roots(roots(out), package, out,
                             pythonpath=(REPO / "src",))
        seen = called(out)
    missed = never_run(functions, seen)
    kept = [f for f in missed if f.name in ALLOWED]
    unkept = [f for f in missed if f.name not in ALLOWED]
    ran = {f.name for f in functions} - {f.name for f in missed}
    idle = sorted(ran & set(ALLOWED))

    def total(group):
        return f"{len(group)} ({sum(f.lines for f in group)} lines)"

    print("roots:")
    for label, status, seconds in statuses:
        flag = "" if status == 0 else f"  EXIT {status}"
        print(f"  {seconds:7.1f} s  {label}{flag}")
    print(f"functions in src/repro: {len(functions)}")
    print(f"never run by a root: {total(missed)}")
    print(f"  kept by ALLOWED: {total(kept)}")
    print(f"  not kept: {total(unkept)}")
    for f in unkept:
        print(f"    {f.path.relative_to(REPO)}:{f.lineno} {f.name} "
              f"({f.lines} lines)")
    if idle:
        print(f"ALLOWED entries a root runs: {', '.join(idle)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
