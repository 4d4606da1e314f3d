import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from quasiline import make_sequence, sequence_from_json_dict, sequence_to_json_dict
from quasiline.errors import NotGeneralized, ValidationError
from quasiline.sequences import Move
from quasiline.wiring import (
    GeneralizedWiringDiagram,
    diagram_from_json_dict,
    diagram_from_lines,
    diagram_to_json_dict,
    sweep_digraph,
    topological_sweep,
    trace_faces_disk,
)
from quasiline.rotmaps import RotationMap
from quasiline.sequences import MAX_WIRES

from oracles import (
    AbstractArrangement,
    arrangement_from_diagram,
    arrangement_map_by_scan,
    as_diagram,
    cyclic,
    faces_by_orbits,
    fano,
    find_monotone_marking,
    is_proper_marking,
    kahn_order,
    pair_counts,
    random_generalized_sequence,
    random_line_arrangement,
    realized,
    small_rational_arrangement,
    sweep_cut_ok,
    triangle,
    two_lines_three_points,
    with_random_digons,
)


def random_diagrams(count, seed=61, n_max=8):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, n_max)
        seq = random_generalized_sequence(rng, n, designate=True)
        out.append(as_diagram(seq))
    return out


# -- construction and conversion ----------------------------------------------


def test_diagram_requires_two_wires():
    with pytest.raises(ValidationError):
        GeneralizedWiringDiagram(1, ())


def test_diagram_requires_odd_crossings():
    with pytest.raises(NotGeneralized):
        GeneralizedWiringDiagram(2, ())
    with pytest.raises(NotGeneralized):
        as_diagram(make_sequence(3, [(1, 2)]))
    with pytest.raises(NotGeneralized, match="wires 1 and 2 cross an even number of times"):
        GeneralizedWiringDiagram(2, (Move(1, 2), Move(1, 2)))


def test_wire_count_is_bounded_before_any_table():
    # one full reversal crosses every pair once, so only the bound refuses
    assert GeneralizedWiringDiagram(MAX_WIRES, (Move(1, MAX_WIRES),)).permutation_before(1)[0] == MAX_WIRES
    for n in (MAX_WIRES + 1, 10**19):
        with pytest.raises(ValidationError, match="at most"):
            GeneralizedWiringDiagram(n, (Move(1, n),))
    # too few crossings is still reported as such, whatever n is
    with pytest.raises(NotGeneralized):
        GeneralizedWiringDiagram(10**19, (Move(1, 2),))


def test_diagram_json_refuses_fractional_numbers():
    data = diagram_to_json_dict(as_diagram(make_sequence(3, [(1, 2), (2, 2), (1, 2)])))
    for changed in ({"n": 3.5}, {"events": [[1.5, 2, None]] + data["events"][1:]}):
        with pytest.raises(ValidationError, match="expected an integer"):
            diagram_from_json_dict({**data, **changed})


def test_triangle_diagram_three_crossings():
    d = realized(triangle())
    assert d.n == 3
    assert d.event_count == 3


def test_n2_triple_crossing_diagram():
    seq = make_sequence(2, [(1, 2), (1, 2), (1, 2)])
    d = as_diagram(seq)
    assert d.n == 2 and d.event_count == 3


def test_fano_diagram_designated_triples():
    d = realized(fano())
    assert d.n == 7
    designated = d.designated_events()
    assert len(designated) == 7
    assert all(d.moves[i].length == 3 for i in designated)


def test_roundtrip_sequence_diagram():
    rng = random.Random(67)
    for _ in range(100):
        n = rng.randint(2, 8)
        seq = random_generalized_sequence(rng, n, designate=True)
        d = as_diagram(seq)
        assert sequence_from_json_dict(sequence_to_json_dict(d)) == seq
        assert diagram_from_json_dict(diagram_to_json_dict(d)) == d


def test_roundtrip_fano():
    d = realized(fano())
    # sequence JSON carries no labels: loading names the points p1..p7
    seq = sequence_from_json_dict(sequence_to_json_dict(d))
    assert [m.point for m in seq.moves if m.point is not None] == [
        f"p{k}" for k in range(1, 8)
    ]
    relabelled = tuple(replace(m, point=d.moves[i].point) for i, m in enumerate(seq.moves))
    assert GeneralizedWiringDiagram(seq.n, relabelled) == d


def test_diagram_json_roundtrip():
    for d in (realized(triangle()), realized(fano())) + tuple(random_diagrams(10)):
        assert diagram_from_json_dict(diagram_to_json_dict(d)) == d


# -- sweeps --------------------------------------------------------------------


def test_triangle_sweep_digraph():
    d = realized(triangle())
    arcs = sweep_digraph(d)
    assert d.event_count == 3
    assert arcs and all(u < v for u, v in arcs)


def test_single_event_sweep():
    d = as_diagram(make_sequence(2, [(1, 2)]))
    assert sweep_digraph(d) == ()
    assert topological_sweep(d) == [0]


def test_left_to_right_is_topological():
    for d in random_diagrams(50) + [realized(two_lines_three_points())]:
        arcs = sweep_digraph(d)
        assert list(arcs) == sorted(set(arcs))
        assert all(u < v for u, v in arcs)


def test_sweeps_acyclic_and_cut_valid():
    diagrams = random_diagrams(200) + [realized(triangle()), realized(fano()), realized(two_lines_three_points())]
    for d in diagrams:
        arcs = sweep_digraph(d)
        assert all(u < v for u, v in arcs)
        order = topological_sweep(d)
        assert order == kahn_order(d.event_count, arcs)
        assert sweep_cut_ok(d, order)


# -- markings -------------------------------------------------------------------


def test_diagram_induced_marking_is_proper_at_gap_zero():
    for d in [realized(triangle()), realized(fano()), realized(two_lines_three_points())] + random_diagrams(30):
        a = arrangement_from_diagram(d)
        assert is_proper_marking(a, 0)
        assert find_monotone_marking(a) is not None


def test_pseudoline_arrangement_proper_at_every_gap():
    # pairwise single crossings impose no order constraints
    d = realized(triangle())
    a = arrangement_from_diagram(d)
    for gap in range(2 * a.n):
        assert is_proper_marking(a, gap)


def _two_line_arrangement(order2):
    boundary = ((1, 0), (2, 0), (1, 1), (2, 1))
    return AbstractArrangement(2, boundary, (("u", "v", "w"), order2))


def test_non_monotone_witness_found_by_brute_force():
    # all ways a second line can meet the same three crossings
    witnesses = []
    for order2 in itertools.permutations(("u", "v", "w")):
        a = _two_line_arrangement(order2)
        if find_monotone_marking(a) is None:
            witnesses.append(order2)
    assert witnesses, "brute force found no non-monotone arrangement"
    # and the monotone ones are exactly the equal or reversed orders
    assert set(itertools.permutations(("u", "v", "w"))) - set(witnesses) == {
        ("u", "v", "w"),
        ("w", "v", "u"),
    }


def test_orientation_consistent_but_not_monotone():
    """Three lines whose pairwise orders force alternating orientations.

    Pairs (1,2) and (2,3) agree only when the two lines are oriented
    oppositely, pair (1,3) only when equally; the consistent assignments
    are exactly the alternating ones, which no boundary gap produces, so
    the arrangement is orientation-consistent but not monotone.
    """
    u = ("u1", "u2", "u3")
    v = ("v1", "v2", "v3")
    w = ("w1", "w2", "w3")
    rows = (
        u + v,                 # line 1
        u[::-1] + w,           # line 2
        v + w[::-1],           # line 3
    )
    boundary = ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1))
    a = AbstractArrangement(3, boundary, rows)

    def consistent(assignment):
        oriented = [
            row if keep else row[::-1] for row, keep in zip(rows, assignment)
        ]
        for i, j in itertools.combinations(range(3), 2):
            shared = set(oriented[i]) & set(oriented[j])
            s1 = [x for x in oriented[i] if x in shared]
            s2 = [x for x in oriented[j] if x in shared]
            if s1 != s2:
                return False
        return True

    feasible = [
        bits for bits in itertools.product((True, False), repeat=3) if consistent(bits)
    ]
    assert feasible == [(True, False, True), (False, True, False)]
    assert find_monotone_marking(a) is None


def test_brute_force_none_instance_small():
    # exhaustive scan over two-line arrangements with shared crossings
    # ordered every possible way: non-monotone instances exist
    nones = 0
    for order2 in itertools.permutations(("u", "v", "w")):
        if find_monotone_marking(_two_line_arrangement(order2)) is None:
            nones += 1
    assert nones == 4


# -- faces ----------------------------------------------------------------------


def test_triangle_faces():
    d = realized(triangle())
    faces = trace_faces_disk(d)
    assert len(faces) == 4
    rm = arrangement_map_by_scan(d)
    assert len(rm.vertices) == 3 and len(rm.edges) == 6
    assert len(rm.vertices) - len(rm.edges) + len(rm.faces) == 1
    assert all(len(f) != 2 for f in faces)


def test_digon_example_faces():
    d = realized(two_lines_three_points())
    faces = trace_faces_disk(d)
    assert sum(len(f) == 2 for f in faces) >= 2
    rm = arrangement_map_by_scan(d)
    assert len(rm.vertices) - len(rm.edges) + len(rm.faces) == 1
    assert sum(len(f) for f in faces) == 2 * len(arrangement_map_by_scan(d).edges)


def test_euler_and_handshake_on_corpus():
    diagrams = random_diagrams(120) + [realized(triangle()), realized(fano()), realized(two_lines_three_points())]
    for d in diagrams:
        rm = arrangement_map_by_scan(d)
        faces = trace_faces_disk(d)
        assert len(rm.vertices) - len(rm.edges) + len(faces) == 1
        assert sum(len(f) for f in faces) == 2 * len(rm.edges)


def band_cell_corpus():
    """Random generalized diagrams on 2..12 wires, the same with digons
    inserted, realizations of cyclic (7_3)..(100_3) and Euclidean
    arrangements, concurrent lines included."""
    rng = random.Random(3004)
    for n in range(2, 13):
        for _ in range(40):
            d = as_diagram(random_generalized_sequence(rng, n, rng.randint(0, 8), rng.random() < 0.5))
            yield d
            yield with_random_digons(rng, d, rng.randint(1, 3))
    for n in range(7, 101, 3):
        c = cyclic(n)
        yield realized(c)
    for n in range(3, 10):
        yield diagram_from_lines(random_line_arrangement(rng, n))
        for _ in range(5):
            try:
                d = diagram_from_lines(small_rational_arrangement(rng, n))
            except ValidationError:  # a repeated or degenerate line
                continue
            yield d


def least_cycle(cycle):
    """The least rotation of the cycle or of its reverse: the same for
    every start and direction of one cyclic sequence."""
    return min(c[i:] + c[:i] for c in (cycle, cycle[::-1]) for i in range(len(c)))


def test_band_cells_match_orbit_oracle(monkeypatch):
    # the faces themselves, not only their lengths: every face is the cycle
    # of events it walks, compared up to its start and direction, and the
    # two sides must list the same cycles as many times each
    built = []
    check = RotationMap.__post_init__
    monkeypatch.setattr(
        RotationMap, "__post_init__", lambda self: built.append(self) or check(self)
    )
    count = 0
    for d in band_cell_corpus():
        want = sorted(map(least_cycle, faces_by_orbits(d)))
        built.clear()
        faces = trace_faces_disk(d)
        assert not built
        assert all(type(face) is tuple for face in faces)
        assert [len(f) for f in faces] == sorted(len(f) for f in faces)
        assert sorted(map(least_cycle, faces)) == want, d
        count += 1
    assert count > 900


def test_band_cells_bound_every_arc_twice():
    """Without an oracle: consecutive events of every face, the last and
    the first included, are joined by an arc, and every arc, the ones
    through infinity included, bounds exactly two face sides."""
    for d in band_cell_corpus():
        arcs = Counter()
        for w in range(1, d.n + 1):
            path = d.wire_events(w)
            arcs.update(frozenset(ends) for ends in zip(path, path[1:] + path[:1]))
        sides = Counter(
            frozenset(ends) for face in trace_faces_disk(d) for ends in zip(face, face[1:] + face[:1])
        )
        assert sides == Counter({arc: 2 * k for arc, k in arcs.items()}), d


def test_crossing_number_identity():
    import math

    for d in random_diagrams(60):
        counts = pair_counts(d)
        by_pairs = sum(
            counts[frozenset(p)]
            for p in itertools.combinations(range(1, d.n + 1), 2)
        )
        by_events = sum(math.comb(ev.length, 2) for ev in d.moves)
        assert by_pairs == by_events
