"""Property test: admissible digon and triangle moves keep the surface
map's fingerprint, on move walks drawn by Hypothesis."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from quasiline import fingerprint, scheme_from_realization
from quasiline.wiring import (
    apply_triangle_move,
    insert_digon,
    removable_digons,
    remove_digon,
    triangle_moves,
)

from oracles import fano, mobius_kantor, random_structure, realized, triangle, triple_structure

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)

NAMED = [
    triangle(),
    fano(),
    mobius_kantor(),
    triple_structure([(i, (i + 1) % 9, (i + 3) % 9) for i in range(9)]),
]

STEPS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "remove", "triangle")),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
    ),
    max_size=10,
)


@st.composite
def structures(draw):
    index = draw(st.integers(0, len(NAMED)))
    if index < len(NAMED):
        return NAMED[index]
    return random_structure(random.Random(draw(st.integers(0, 2**16))), 6, 6)


@PROPERTY
@given(structures(), STEPS)
def test_admissible_moves_keep_the_fingerprint(structure, steps):
    d = realized(structure)
    start = fingerprint(scheme_from_realization(d))
    windows = [(d.moves[i].point, d.window_wires_table[i]) for i in d.designated_events()]
    for kind, a, b in steps:
        if kind == "insert":
            at = a % (d.event_count + 1)
            track = 1 + b % (d.n - 1)
            perm = d.permutation_before(at)
            d = insert_digon(d, (perm[track - 1], perm[track]), at)
        elif kind == "remove":
            sites = list(removable_digons(d))
            if sites:
                d = remove_digon(d, sites[a % len(sites)][0])
        else:
            sites = list(triangle_moves(d))
            if sites:
                d = apply_triangle_move(d, sites[a % len(sites)])
        assert fingerprint(scheme_from_realization(d)) == start
        assert [(d.moves[i].point, d.window_wires_table[i]) for i in d.designated_events()] == windows
