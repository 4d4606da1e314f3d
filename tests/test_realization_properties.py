"""Property test: ``realize(default_plan(s))`` has the paper's invariants
on structures drawn by Hypothesis.

Every line pair crosses an odd number of times, each point's designated
window reads the plan's line order, bridging moves are adjacent
transpositions, and an (n_k) input has at least C(n,2) - n*C(k,2)
unwanted crossings: line pairs with no common point cross only there.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from quasiline import (
    build,
    configuration_signature,
    default_plan,
    realize,
    topological_unwanted_bound,
    unwanted_crossing_count,
)
from oracles import pair_counts, random_structure

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def translate_configurations(draw):
    """An (n_k) structure: the translates of a k-subset of Z_n, lines
    declared in a drawn order."""
    n = draw(st.integers(3, 13))
    k = draw(st.integers(2, min(4, n)))
    base = draw(st.permutations(range(n)))[:k]
    order = draw(st.permutations(range(n)))
    lines = [f"l{i}" for i in order]
    flags = [((i + d) % n, f"l{i}") for i in range(n) for d in base]
    return build(range(n), lines, flags)


RANDOM_STRUCTURES = st.integers(0, 2**32 - 1).map(lambda s: random_structure(random.Random(s)))


@PROPERTY
@given(st.one_of(translate_configurations(), RANDOM_STRUCTURES))
def test_default_realization_invariants(structure):
    plan = default_plan(structure)
    r = realize(structure, plan)
    n = len(plan.line_numbering)
    counts = pair_counts(r.seq)
    pairs = itertools.combinations(range(1, n + 1), 2)
    assert all(counts[frozenset(pair)] % 2 == 1 for pair in pairs)

    number = {l: i + 1 for i, l in enumerate(plan.line_numbering)}
    windows = r.point_of_move
    assert sorted(windows.values(), key=str) == sorted(structure.points, key=str)
    for idx, point in windows.items():
        expected = [number[l] for l in plan.point_line_orders[point]]
        assert list(r.seq.window_wires_table[idx - 1]) == expected
    assert all(m.length == 2 for i, m in enumerate(r.seq.moves, 1) if i not in windows)

    signature = configuration_signature(structure)
    if signature is not None and signature[0] == signature[2] and signature[1] == signature[3]:
        v, k = signature[0], signature[1]
        assert unwanted_crossing_count(r) >= topological_unwanted_bound(v, k)
