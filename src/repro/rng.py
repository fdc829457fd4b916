"""Shared, seedable randomness for the whole simulation stack.

Every stochastic routine in the library accepts an explicit
``numpy.random.Generator``; this module governs what happens when the
caller passes ``None``.  Historically each call site silently created a
fresh ``default_rng()`` from OS entropy, which made any run that relied on
the default irreproducible — two identical calibration sweeps disagreed in
every noisy digit.  Now all ``rng=None`` paths resolve to one process-wide
generator that :func:`set_global_seed` pins, so

* ``set_global_seed(7)`` at the top of a script makes the entire run —
  detection, calibration, platform panels — replayable bit-for-bit;
* leaving the seed unset preserves the old behavior (one entropy-seeded
  stream) without the per-call generator churn.

The batch engine goes one step further and never touches the shared
stream: :func:`spawn_generators` derives one independent child generator
per simulation cell from a single root seed (``np.random.SeedSequence``
spawning), so a campaign replays deterministically regardless of how its
cells are grouped, ordered, or sharded.
"""

from __future__ import annotations

import numpy as np

_shared_rng: np.random.Generator | None = None


def set_global_seed(seed: int | None) -> np.random.Generator:
    """Seed (or, with ``None``, re-randomize) the shared generator.

    Returns the new shared generator so scripts can also use it directly.
    """
    global _shared_rng
    _shared_rng = np.random.default_rng(seed)
    return _shared_rng


def get_rng(rng: np.random.Generator | None = None) -> np.random.Generator:
    """Resolve an optional generator argument to a concrete generator.

    An explicit ``rng`` wins; ``None`` falls back to the process-wide
    shared generator (created from OS entropy on first use when no
    :func:`set_global_seed` call preceded it).
    """
    global _shared_rng
    if rng is not None:
        return rng
    if _shared_rng is None:
        _shared_rng = np.random.default_rng()
    return _shared_rng


def generator_from_seed(seed: int | None) -> np.random.Generator:
    """Resolve an optional *seed* argument to a concrete generator.

    The seed-flavored sibling of :func:`get_rng`: an explicit integer
    seed gets its own fresh generator (independent of the shared
    stream), while ``None`` falls back to the shared seedable generator
    instead of silently drawing OS entropy — so a script that seeds once
    via :func:`set_global_seed` stays reproducible even through
    ``seed=None`` call sites.
    """
    if seed is None:
        return get_rng(None)
    return np.random.default_rng(seed)


def spawn_generators(seed: int | np.random.SeedSequence | None,
                     n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from one root seed.

    Uses ``np.random.SeedSequence.spawn``, the collision-resistant way to
    give every cell of a batched simulation its own stream.  A ``None``
    seed still yields mutually independent children (entropy-seeded root),
    just not a replayable set.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]


def standard_normal_rows(rngs: "list[np.random.Generator]",
                         n_samples: int) -> np.ndarray:
    """``(len(rngs), n_samples)`` standard normals, row ``i`` from
    ``rngs[i]`` — the same draws as stacking ``rng.standard_normal(n)``,
    written straight into one block."""
    shocks = np.empty((len(rngs), n_samples))
    for rng, row in zip(rngs, shocks):
        rng.standard_normal(out=row)
    return shocks
