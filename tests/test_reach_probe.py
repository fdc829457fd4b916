"""The call probe (``tests/reach_probe.py``) counts every process and
thread a root starts, and only the code that never ran is reported."""

import sys

from tests.reach_probe import called, inventory, never_run, run_roots

PLANTED = '''\
def in_main():
    return 1


def in_child():
    return 2


def in_thread():
    return 3


def never():
    return 4


class Interface:
    def declared(self):
        """Subclasses say how."""
        raise NotImplementedError
'''

ROOT = '''\
import multiprocessing
import threading

from plant import work

if __name__ == "__main__":
    work.in_main()
    child = multiprocessing.get_context("fork").Process(target=work.in_child)
    child.start()
    child.join()
    thread = threading.Thread(target=work.in_thread)
    thread.start()
    thread.join()
'''


def test_forked_and_threaded_calls_count(tmp_path):
    package = tmp_path / "src" / "plant"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "work.py").write_text(PLANTED)
    (tmp_path / "root.py").write_text(ROOT)
    out = tmp_path / "out"
    statuses = run_roots([("root", [sys.executable, "root.py"], {})],
                         package, out, cwd=tmp_path,
                         pythonpath=(tmp_path / "src",), timeout=60)
    assert [status for __, status, __ in statuses] == [0]
    assert len(list((out / "calls").glob("*.calls"))) == 2  # parent, child
    functions = inventory(package)
    assert [f.name for f in functions] == [
        "in_main", "in_child", "in_thread", "never"]
    assert [f.name for f in never_run(functions, called(out))] == ["never"]
