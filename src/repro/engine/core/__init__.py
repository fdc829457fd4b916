"""One execution core for every workload: plan graph -> chunked kernels.

The four engine workloads (calibration batches, continuous monitoring,
closed-loop therapy, concentration estimation) share one execution
skeleton: a declarative plan is compiled to an
:class:`~repro.engine.core.plan.ExecutionPlan` (channel axis, sample
axis, chunking policy, segment graph), and a registered
:class:`~repro.engine.core.kernelset.KernelSet` advances carry state
through :func:`~repro.engine.core.executor.execute`'s chunk loop.  The
core provides, once for everyone: chunked iteration, carry-state
threading, and chunk-size invariance and scalar-equivalence checking
(:mod:`~repro.engine.core.contract`).

Entry points:

* :func:`run_workload` — vectorized path for any registered workload.
* :func:`run_scalar` — the per-element scalar reference.

Adding a fifth workload means writing a kernel set and registering it —
not a fifth engine.  See ``docs/architecture.md``.
"""

from repro.engine.core.contract import (
    DEFAULT_CHUNK_SIZES,
    assert_fields_match,
    check_chunk_invariance,
    check_deterministic_replay,
    check_scalar_equivalence,
)
from repro.engine.core.executor import execute, walk_segments
from repro.engine.core.kernelset import Check, KernelSet
from repro.engine.core.plan import (
    ExecutionPlan,
    PlanBase,
    Segment,
    require_at_least,
    require_in_open_unit_interval,
    require_non_empty,
    require_non_negative,
    require_positive,
    require_row_block,
    single_segment,
    spans_to_segments,
    uniform_segments,
)
from repro.engine.core.registry import (
    kernels_for,
    register_kernels,
    registered_workloads,
    run_scalar,
    run_workload,
)
from repro.engine.core.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    decode_array,
    decode_rng,
    encode_array,
    encode_rng,
    require_keys,
    require_list,
    require_snapshot,
    snapshot_envelope,
)

__all__ = [
    "Check",
    "DEFAULT_CHUNK_SIZES",
    "ExecutionPlan",
    "KernelSet",
    "PlanBase",
    "SNAPSHOT_SCHEMA_VERSION",
    "Segment",
    "assert_fields_match",
    "check_chunk_invariance",
    "check_deterministic_replay",
    "check_scalar_equivalence",
    "decode_array",
    "decode_rng",
    "encode_array",
    "encode_rng",
    "execute",
    "kernels_for",
    "register_kernels",
    "registered_workloads",
    "require_keys",
    "require_list",
    "require_snapshot",
    "snapshot_envelope",
    "require_at_least",
    "require_in_open_unit_interval",
    "require_non_empty",
    "require_non_negative",
    "require_positive",
    "require_row_block",
    "run_scalar",
    "run_workload",
    "single_segment",
    "spans_to_segments",
    "uniform_segments",
    "walk_segments",
]
