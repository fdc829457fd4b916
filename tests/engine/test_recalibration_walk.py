"""The reference walk of ``estimate_chunk_with_recalibration`` equals
the per-segment loop bit for bit.

The engine walks only a chunk's reference columns and then estimates
the whole chunk in one pass against the slope in force over each
sample.  The oracle below is the loop it replaced: it splits the chunk
at every reference sample, estimates each segment, and re-fits at the
segment's end with the one-point arithmetic written out.  Generated
horizons are cut into chunks of 1, ref - 1, ref, ref + 1 samples or the
whole horizon, so chunks start and end before, on and after reference
samples; rows with a reference at a 0.0 floor and rows whose implied
slope is not positive are part of every cohort.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.engine.monitor import estimate_chunk_with_recalibration


def _segment_oracle(measured, reference, start, stop, slopes, intercepts,
                    ref_every, tolerance, policy_active):
    """The per-segment loop: estimate, then re-fit at each reference."""
    n_channels, chunk = measured.shape
    estimates = np.empty((n_channels, chunk))
    events = []
    segment_start = start
    while segment_start < stop:
        if policy_active:
            next_ref = ((segment_start + ref_every)
                        // ref_every) * ref_every - 1
            segment_stop = min(stop, next_ref + 1)
        else:
            segment_stop = stop
        local = slice(segment_start - start, segment_stop - start)
        estimates[:, local] = np.maximum(
            0.0, (measured[:, local] - intercepts[:, None])
            / slopes[:, None])
        last = segment_stop - 1
        if policy_active and (last + 1) % ref_every == 0:
            j = last - start
            reference_c = reference[:, j]
            has_reference = reference_c > 0
            rel_error = np.zeros(n_channels)
            np.divide(np.abs(estimates[:, j] - reference_c),
                      reference_c, out=rel_error, where=has_reference)
            triggered = has_reference & (rel_error > tolerance)
            if np.any(triggered):
                implied = ((measured[:, j] - intercepts)
                           / np.where(has_reference, reference_c, 1.0))
                accepted = triggered & (implied > 0)
                slopes = np.where(accepted, implied, slopes)
                if np.any(accepted):
                    events.append((last, accepted))
        segment_start = segment_stop
    return estimates, slopes, events


def _cohort(seed: int, n: int, horizon: int):
    """Readings of a drifting cohort: row 0's truth sits at a 0.0 floor
    at every other sample, and the last row reads below its intercept
    (implied slope <= 0) whenever it is re-fit."""
    rng = np.random.default_rng(seed)
    reference = rng.uniform(0.5, 2.0, (n, horizon))
    reference[0, ::2] = 0.0
    intercepts = rng.uniform(0.0, 0.2, n)
    slopes = rng.uniform(0.5, 2.0, n)
    drift = np.exp(-rng.uniform(0.0, 0.05, n)[:, None]
                   * np.arange(horizon))
    measured = (intercepts[:, None]
                + slopes[:, None] * drift * reference
                + rng.normal(0.0, 0.05, (n, horizon)))
    measured[-1] = intercepts[-1] - rng.uniform(0.01, 0.1, horizon)
    return measured, reference, slopes, intercepts


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       horizon=st.integers(1, 60), ref_every=st.integers(1, 9),
       chunk=st.sampled_from(("one", "ref-1", "ref", "ref+1", "whole")),
       tolerance=st.sampled_from((0.01, 0.08, 0.3)),
       policy_active=st.booleans())
@example(seed=1, n=3, horizon=24, ref_every=6, chunk="ref+1",
         tolerance=0.08, policy_active=True)
@example(seed=2, n=2, horizon=5, ref_every=1, chunk="whole",
         tolerance=0.01, policy_active=True)
def test_walk_matches_segment_loop(seed, n, horizon, ref_every, chunk,
                                   tolerance, policy_active):
    measured, reference, slopes, intercepts = _cohort(seed, n, horizon)
    size = {"one": 1, "ref-1": max(ref_every - 1, 1), "ref": ref_every,
            "ref+1": ref_every + 1, "whole": horizon}[chunk]
    walked = oracle = slopes
    for start in range(0, horizon, size):
        stop = min(start + size, horizon)
        block = (measured[:, start:stop], reference[:, start:stop],
                 start, stop)
        got = estimate_chunk_with_recalibration(
            *block, walked, intercepts, ref_every, tolerance,
            policy_active)
        want = _segment_oracle(*block, oracle, intercepts, ref_every,
                               tolerance, policy_active)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert [k for k, _ in got[2]] == [k for k, _ in want[2]]
        for (_, mask), (_, expected) in zip(got[2], want[2]):
            assert mask.tolist() == expected.tolist()
        walked, oracle = got[1], want[1]
