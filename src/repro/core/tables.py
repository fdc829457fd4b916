"""Text rendering of the paper's tables."""

from __future__ import annotations

from repro.core.registry import SensorSpec, TABLE1_SPECS

#: Technique names as printed in Table 1.
_TECHNIQUE_NAMES = {"CA": "Chronoamperometry", "CV": "Cyclic voltammetry"}


def table1_rows(specs: tuple[SensorSpec, ...] = TABLE1_SPECS
                ) -> list[tuple[str, str, str]]:
    """Return (target, probe, technique) rows in Table 1 order."""
    rows = []
    for spec in specs:
        rows.append((
            spec.analyte_name.upper(),
            spec.enzyme_name,
            _TECHNIQUE_NAMES[spec.technique],
        ))
    return rows


def render_table1(specs: tuple[SensorSpec, ...] = TABLE1_SPECS) -> str:
    """Render Table 1 ("Features of different metabolite biosensors")."""
    rows = table1_rows(specs)
    width_target = max(len(r[0]) for r in rows) + 2
    width_probe = max(len(r[1]) for r in rows) + 2
    lines = ["Table 1: Features of different metabolite biosensors.",
             f"{'Target':<{width_target}}{'Probe':<{width_probe}}Technique"]
    for target, probe, technique in rows:
        lines.append(f"{target:<{width_target}}{probe:<{width_probe}}{technique}")
    return "\n".join(lines)
