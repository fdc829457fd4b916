"""Validation helpers: paper-vs-measured comparisons.

The reproduction's acceptance criterion is *shape*, not absolute equality:
who wins, by roughly what factor, and where the crossovers fall.  These
helpers encode those checks for the benchmarks and integration tests.
"""

from __future__ import annotations


def within_factor(measured: float, expected: float, factor: float) -> bool:
    """True when measured and expected agree within a multiplicative factor.

    ``within_factor(x, y, 2)`` accepts x in [y/2, 2y].  Both values must be
    positive; ``factor`` must be >= 1.
    """
    if measured <= 0 or expected <= 0:
        raise ValueError("values must be positive")
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    ratio = measured / expected
    return 1.0 / factor <= ratio <= factor


def ranking_matches(values_by_id: dict[str, float],
                    expected_order: list[str]) -> bool:
    """True when ids sorted by descending value equal ``expected_order``.

    Used for the section 3.2 narratives, e.g. the CYP sensitivities must
    rank arachidonic acid > Ftorafur > ifosfamide > cyclophosphamide.
    """
    if set(values_by_id) != set(expected_order):
        raise ValueError("ids and expected order must contain the same keys")
    actual = sorted(values_by_id, key=values_by_id.__getitem__, reverse=True)
    return actual == expected_order
