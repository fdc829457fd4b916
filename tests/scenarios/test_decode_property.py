"""Property test: mutated scenario and campaign files decode or refuse.

Hypothesis takes each checked-in ``examples/scenarios/*.json`` and
``examples/campaigns/glucose_fleet.json``, replaces or deletes one to
three of its leaves (with ``None``, booleans, huge, negative and
fractional numbers, non-finite floats, strings, lists and mappings) and
decodes the result the way the server does: ``Scenario.from_dict`` (or
``CampaignSpec.from_dict`` and its first shard), then ``plan_for``.
Each must give a plan, a ``ValueError`` or a ``KeyError`` (what the
front door answers 400) within the Hypothesis deadline, never another
exception: ``POST /scenarios`` turns any other one into a 500.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.spec import CampaignSpec
from repro.scenarios import Scenario, plan_for
from repro.scenarios.workloads import MAX_COHORT

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
DOCUMENTS = sorted(EXAMPLES.glob("scenarios/*.json")) + [
    EXAMPLES / "campaigns" / "glucose_fleet.json"]

#: What a mutated leaf becomes ("delete" removes it).
LEAF_VALUES = st.one_of(
    st.just("delete"), st.none(), st.booleans(),
    st.integers(-3, 2 * MAX_COHORT),
    # 50 000 patients take seconds to sample: over the cap they must be
    # refused before any sampling starts
    st.sampled_from([MAX_COHORT + 1, 50_000, 2**63, 10**400]),
    st.floats(),
    st.sampled_from([1e308, -1e308, 2.7, 0.5, -0.0, 1e-300]),
    st.text(max_size=12),
    st.sampled_from(["3", "", "glucose/this-work", "glucose", "lactate",
                     "cyclosporine", "bayesian", "fixed", "oral",
                     "infusion"]),
    st.lists(st.integers(0, 3) | st.text(max_size=4), max_size=3),
    st.dictionaries(st.text(max_size=6), st.integers(0, 3), max_size=2),
)


def _leaves(node, path=()):
    """The paths (keys and indices) of every leaf under ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaves(value, path + (index,))
    else:
        yield path


def _mutate(document: dict, path: tuple, value) -> None:
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    if value == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def _decode(document: dict):
    if "n_shards" in document:
        return plan_for(CampaignSpec.from_dict(document).shard(0))
    return plan_for(Scenario.from_dict(document))


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
def test_every_mutated_example_decodes_or_is_refused(path):
    original = json.loads(path.read_text())
    _decode(original)   # the example itself decodes (and warms caches)
    leaves = list(_leaves(original))

    @settings(max_examples=150, deadline=2000)
    @given(mutations=st.lists(st.tuples(st.sampled_from(leaves),
                                        LEAF_VALUES),
                              min_size=1, max_size=3))
    def check(mutations):
        document = copy.deepcopy(original)
        for leaf, value in mutations:
            try:
                _mutate(document, leaf, value)
            except (KeyError, IndexError, TypeError):
                pass    # an earlier mutation removed or replaced it
        try:
            _decode(document)
        except (ValueError, KeyError):
            pass

    check()
