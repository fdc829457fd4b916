"""Every public top-level function and class in ``src/repro`` is reached.

A name is reached when ``examples/``, ``benchmarks/``, ``perfbench/`` or
``docs/`` names it, when library code outside any public definition
names it, or when the body of a reached definition names it.  Its own
body, module docstrings, ``__init__`` re-exports, ``__all__`` lists and
``tests/`` do not count, so code only its tests call is reported, with
all it alone calls.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CONTRACT, HOOK = "execution-contract suite API", "kernel cache test hook"

#: Kept although only tests call them: each is the reference a test
#: holds live code to, or a hook the tests drive.
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


def unreached() -> list[str]:
    roots = [path.read_text(errors="ignore")
             for folder in ("examples", "benchmarks", "perfbench", "docs")
             for path in (REPO / folder).rglob("*") if path.is_file()]
    bodies: dict[str, list[str]] = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            text = "\n".join(lines[first - 1:node.end_lineno])
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                bodies.setdefault(node.name, []).append(text)
            elif not _is_not_a_use(node, path):
                roots.append(text)
    reached: set[str] = set()
    frontier = roots + [text for name in ALLOWED for text in bodies[name]]
    while frontier:
        new = set(re.findall(r"\w+", "\n".join(frontier))) & bodies.keys()
        new -= reached
        reached |= new
        frontier = [text for name in new for text in bodies[name]]
    return sorted(bodies.keys() - reached - ALLOWED.keys())


def test_every_public_name_is_reached():
    names = unreached()
    assert not names, f"reached only from tests: {', '.join(names)}"
