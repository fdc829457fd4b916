"""Every public name in ``src/repro`` is reached.

The names are the public top-level functions and classes, and the
public methods, properties, classmethods and staticmethods of public
classes.  A name is reached when a root names it (``examples/``,
``benchmarks/``, ``perfbench/``, ``docs/`` or ``.github/``), when
library code outside any public definition names it, or when the body
of a reached definition names it.  A class's body is its text minus its
public members; a member's body is its own ``def`` with decorators and
docstring.  A definition's own body, module docstrings, ``__init__``
re-exports, ``__all__`` lists and ``tests/`` do not count, so code only
its tests call is reported, with all it alone calls.

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
CONTRACT, HOOK = "execution-contract suite API", "kernel cache test hook"

#: Kept although only tests call them: each is the reference a test
#: holds live code to, or a hook the tests drive.  A member is keyed
#: ``Class.member``.
ALLOWED = {
    "michaelis_menten_rate": "reference for ping_pong_rate",
    "peak_separation_reversible": "reference for the CV simulator",
    "moving_average": "comparator for savitzky_golay",
    "slope_ampere_per_molar": "inverse of sensitivity_paper_from_slope",
    "fraction_below_window": "partition check on time_in_range",
    "fraction_above_window": "partition check on time_in_range",
    "cottrell_charge": "integral of cottrell_current",
    "fractional_deviation_from_linearity": "reference for linear_range_upper",
    "assert_fields_match": CONTRACT, "check_chunk_invariance": CONTRACT,
    "check_scalar_equivalence": CONTRACT,
    "check_deterministic_replay": CONTRACT,
    "cache_info": HOOK, "clear_caches": HOOK,
    "read_jsonl": "reads JsonlSink traces back to check them",
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
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                for name, word, text in _definitions(lines, node):
                    bodies.setdefault(word, []).append(text)
                    names[name] = word
            elif not _is_not_a_use(node, path):
                first, last = _span(node)
                roots.append("\n".join(lines[first:last]))
    reached: set[str] = set()
    frontier = roots + [text for name in allowed
                        for text in bodies[names[name]]]
    while frontier:
        new = set(re.findall(r"\w+", "\n".join(frontier))) & bodies.keys()
        new -= reached
        reached |= new
        frontier = [text for word in new for text in bodies[word]]
    return sorted(name for name, word in names.items()
                  if word not in reached and name not in allowed)


def test_every_public_name_is_reached():
    names = unreached()
    assert not names, f"reached only from tests: {', '.join(names)}"


def test_members_count_as_names(tmp_path):
    """A dead method or property is reported; one reached from CI or
    through a reached member is not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "sensor.py").write_text(
        "class Sensor:\n"
        "    limit = 3\n"
        "\n"
        "    def read(self):\n"
        "        return self.scale()\n"
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
        "Sensor.recalibrate", "Sensor.span"]
