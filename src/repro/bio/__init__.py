"""Biological sample substrate: matrices and interferents.

The paper motivates measurement in "human fluids" and cell-culture media.
Real matrices add electroactive interferents (ascorbate, urate,
paracetamol) and fouling-driven drift; this package provides the synthetic
sample models the examples and failure-injection tests run against.
"""

from repro.bio.matrix import SampleMatrix, BUFFER, SERUM, CELL_CULTURE_MEDIUM
from repro.bio.interference import (
    Interferent,
    ASCORBATE,
    URATE,
    PARACETAMOL,
)

__all__ = [
    "SampleMatrix",
    "BUFFER",
    "SERUM",
    "CELL_CULTURE_MEDIUM",
    "Interferent",
    "ASCORBATE",
    "URATE",
    "PARACETAMOL",
]
