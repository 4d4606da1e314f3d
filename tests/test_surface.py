import itertools
import random
from collections import Counter

import pytest

from quasiline import (
    EmbeddingScheme,
    fingerprint,
    make_sequence,
    scheme_from_json_dict,
    scheme_from_realization,
    scheme_to_json_dict,
    straight_ahead_walks,
    trace_and_summarize,
)
from quasiline.errors import DisconnectedScheme, ValidationError, WireWithoutPoint
from quasiline.rotmaps import RotationMap
from quasiline.wiring import diagram_from_lines, insert_digon

from oracles import (
    as_diagram,
    PAPPUS_EUCLIDEAN_LINES,
    PAPPUS_LABELS,
    PAPPUS_POINTS,
    arrangement_map,
    arrangement_map_by_scan,
    canonical_encoding_by_full_search,
    cyclic,
    degree4_schemes,
    encodings_by_start,
    faces_by_tuples,
    fano,
    is_connected_by_tuples,
    is_orientable_by_tuples,
    mobius_kantor,
    random_generalized_sequence,
    random_long_window_sequence,
    random_map_on_graph,
    random_scheme_transform,
    random_signed_map,
    random_structure,
    realized,
    scheme_by_scan,
    seeded_walk,
    start_codes_by_one_phase,
    starts_by_one_phase,
    straight_ahead_walks_by_tuples,
    torus_grid,
    triangle,
    triple_structure,
    TupleMap,
)


def realization_scheme(structure):
    d = realized(structure)
    return d, scheme_from_realization(d)


# -- rotation map controls ------------------------------------------------------


def test_projective_plane_control():
    # one vertex, one negative loop: the projective plane, one face of length 2
    rm = RotationMap((0,), ((0, 0),), ((0, 1),), (-1,))
    assert len(rm.faces) == 1
    assert rm.face_lengths() == (2,)
    assert len(rm.vertices) - len(rm.edges) + len(rm.faces) == 1
    assert not rm.is_orientable()


def test_torus_control():
    # one vertex, two interleaved positive loops: the torus, one square face
    rm = RotationMap((0,), ((0, 0), (0, 0)), ((0, 2, 1, 3),), (1, 1))
    assert len(rm.faces) == 1
    assert len(rm.vertices) - len(rm.edges) + len(rm.faces) == 0
    assert rm.is_orientable()


def test_sphere_dipole_control():
    # two vertices joined by four parallel edges: the sphere, four lens faces
    rm = RotationMap(*dipole())
    assert len(rm.faces) == 4
    assert len(rm.vertices) - len(rm.edges) + len(rm.faces) == 2
    assert rm.is_orientable()
    summary = trace_and_summarize(EmbeddingScheme(rm, (None,) * 4))
    assert summary.euler == 2 and summary.orientable and summary.genus == 0


# -- scheme construction ---------------------------------------------------------


def test_triangle_scheme():
    _, s = realization_scheme(triangle())
    assert len(s.rotmap.vertices) == 3
    assert len(s.rotmap.edges) == 6
    summary = trace_and_summarize(s)
    # every crossing designated: the map is the arrangement complex itself,
    # so the surface is the projective plane
    assert summary.euler == 1
    assert not summary.orientable
    assert summary.genus == 1
    assert sum(summary.face_vector) == 2 * summary.E


def test_fano_scheme_counts():
    _, s = realization_scheme(fano())
    assert len(s.rotmap.vertices) == 7
    assert len(s.rotmap.edges) == 21
    assert all(len(rot) == 6 for rot in s.rotmap.rotations)
    summary = trace_and_summarize(s)
    assert not summary.orientable
    assert summary.euler == summary.V - summary.E + summary.F
    assert sum(summary.face_vector) == 2 * summary.E


def test_wire_without_point_rejected():
    seq = make_sequence(3, [(1, 2), (2, 2), (1, 2)], designated=[1])
    d = as_diagram(seq)
    with pytest.raises(WireWithoutPoint):
        scheme_from_realization(d)


def test_one_builder_matches_scan_oracles():
    """The arrangement map and the surface map come from one builder; both
    equal the list-scan oracles field by field, and the surface map fails
    with the same error on the same inputs."""
    rng = random.Random(2025)
    diagrams = []
    for _ in range(150):
        n = rng.randint(2, 7)
        seq = random_generalized_sequence(rng, n)
        share = rng.choice((0.3, 0.7, 1.0))
        designated = [i for i in range(1, seq.event_count + 1) if rng.random() < share]
        diagrams.append(as_diagram(make_sequence(n, seq.moves, designated)))
    # windows of length >= 3 at track 1 and at track n
    for _ in range(40):
        seq = random_long_window_sequence(rng, rng.randint(3, 7))
        share = rng.choice((0.3, 0.7, 1.0))
        designated = [i for i in range(1, seq.event_count + 1) if rng.random() < share]
        diagrams.append(as_diagram(make_sequence(seq.n, seq.moves, designated)))
    diagrams.append(realized(fano()))
    diagrams.append(
        diagram_from_lines(PAPPUS_EUCLIDEAN_LINES, PAPPUS_POINTS, PAPPUS_LABELS)
    )
    # one designated crossing of two wires: each wire closes up as a loop
    diagrams.append(as_diagram(make_sequence(2, [(1, 2)], [1])))
    built = loops = rejected = 0
    for d in diagrams:
        full, oracle = arrangement_map(d), arrangement_map_by_scan(d)
        assert full.vertices == oracle.vertices
        assert full.edges == oracle.edges
        assert full.rotations == oracle.rotations
        assert full.signature == oracle.signature
        try:
            expected = scheme_by_scan(d)
        except (WireWithoutPoint, DisconnectedScheme) as exc:
            with pytest.raises(type(exc)):
                scheme_from_realization(d)
            rejected += isinstance(exc, WireWithoutPoint)
            continue
        s = scheme_from_realization(d)
        assert s.rotmap.vertices == expected.rotmap.vertices
        assert s.rotmap.edges == expected.rotmap.edges
        assert s.rotmap.rotations == expected.rotmap.rotations
        assert s.rotmap.signature == expected.rotmap.signature
        assert s.lines == expected.lines
        built += 1
        loops += any(u == v for u, v in s.rotmap.edges)
    assert built >= 100 and loops and rejected


def test_int_face_tracing_matches_tuple_oracle():
    """Faces traced on int states equal the tuple tracer's, state for
    state, on arrangement maps, surface schemes and the criterion-10
    schemes."""

    def as_tuples(orbits):
        return [
            tuple(((x >> 2, x >> 1 & 1), 1 if x & 1 else -1) for x in orbit)
            for orbit in orbits
        ]

    rng = random.Random(1963)
    maps = [s.rotmap for s in degree4_schemes()]
    for _ in range(40):
        d, s = realization_scheme(random_structure(rng, max_points=7, max_lines=7))
        maps += [arrangement_map(d), s.rotmap]
    for structure in (fano(), mobius_kantor(), triangle()):
        d, s = realization_scheme(structure)
        maps += [arrangement_map(d), s.rotmap]
    negative = 0
    for rm in maps:
        assert as_tuples(rm.faces) == faces_by_tuples(rm)
        negative += -1 in rm.signature
    assert negative > len(maps) // 2


def test_canonical_encoding_matches_full_search_oracle():
    for s in degree4_schemes():
        assert s.rotmap.canonical_encoding() == canonical_encoding_by_full_search(s.rotmap)
    rng = random.Random(107)
    irregular = 0
    for _ in range(40):
        d, s = realization_scheme(random_structure(rng, max_points=7, max_lines=7))
        maps = [arrangement_map(d), s.rotmap]
        maps += [random_scheme_transform(rng, s).rotmap for _ in range(2)]
        for rm in maps:
            assert rm.canonical_encoding() == canonical_encoding_by_full_search(rm)
        irregular += len(set(map(len, s.rotmap.rotations))) > 1
    assert irregular >= 20


def test_canonical_encoding_matches_full_search_on_move_walks():
    """The 6-regular maps of seeded admissible move walks from the
    realizations of cyclic (8_3)-(11_3), and random relabellings,
    regaugings and reflections of each."""
    rng = random.Random(109)
    for n in range(8, 12):
        for s in map(scheme_from_realization, seeded_walk(rng, cyclic(n), 5)):
            maps = [s.rotmap] + [random_scheme_transform(rng, s).rotmap for _ in range(2)]
            for rm in maps:
                assert set(map(len, rm.rotations)) == {6}
                assert rm.canonical_encoding() == canonical_encoding_by_full_search(rm)


@pytest.mark.parametrize(
    "rows, cols, doubled",
    [(3, 3, {0}), (3, 5, {0}), (4, 4, {0, 2}), (4, 5, {0, 1}), (5, 3, {1}), (6, 6, {0, 3}), (6, 4, {1, 2, 4})],
)
def test_canonical_encoding_matches_full_search_on_torus_grids_with_doubled_rows(rows, cols, doubled):
    """Torus grids with doubled edges in some rows have vertices of degree
    4 and 6, and many start candidates whose degree parts tie to the end,
    so that only their codes, compared once a candidate is complete,
    decide between them.  With one edge negative, the tied candidates
    differ in their codes.  The grid, the grid with one negative edge and
    two random relabellings, regaugings and reflections of each give the
    full search's encoding."""
    rng = random.Random(rows * 100 + cols)
    grid = torus_grid(rows, cols, doubled)
    flip = grid.edges.index(((0, 0), (1, 0)))
    signed = TupleMap(grid.vertices, grid.edges, grid.rotations, tuple(1 - 2 * (e == flip) for e in range(len(grid.edges))))
    for tuples, distinct in ((grid, 1), (signed, 2)):
        s = tuples.scheme()
        assert set(map(len, s.rotmap.rotations)) == {4, 6}
        full = encodings_by_start(s.rotmap).values()
        least = min(code[: len(grid.vertices)] for code in full)
        tied = [code for code in full if code[: len(grid.vertices)] == least]
        # candidates whose degree parts tie: some tie in full, and signed ones differ
        assert len(tied) > len(set(tied)) >= distinct
        for t in [s] + [random_scheme_transform(rng, s) for _ in range(2)]:
            assert t.rotmap.canonical_encoding() == canonical_encoding_by_full_search(t.rotmap)


@pytest.fixture
def encode_calls(monkeypatch):
    """The (start dart, sense) of every candidate that
    ``RotationMap.canonical_encoding`` encodes, in order."""
    calls = []
    encode = RotationMap._encode

    def counted(tables, start, reflect, best):
        calls.append((start, reflect))
        return encode(tables, start, reflect, best)

    monkeypatch.setattr(RotationMap, "_encode", staticmethod(counted))
    return calls


def test_pruned_encoding_matches_full_search_on_8_regular_maps(encode_calls):
    """The 8-regular maps of a move walk from the realization of the
    (13_4) configuration with lines {i, i+1, i+3, i+9} mod 13 (the
    projective plane of order 3), and random relabellings, regaugings and
    reflections of each; one map's encodings are all equal."""
    rng = random.Random(113)
    plane = triple_structure([(i, (i + 1) % 13, (i + 3) % 13, (i + 9) % 13) for i in range(13)])
    darts = 0
    for s in map(scheme_from_realization, seeded_walk(rng, plane, 4)):
        maps = [s.rotmap] + [random_scheme_transform(rng, s).rotmap for _ in range(3)]
        codes = set()
        for rm in maps:
            assert set(map(len, rm.rotations)) == {8}
            codes.add(rm.canonical_encoding())
            assert codes == {canonical_encoding_by_full_search(rm)}
            darts += 4 * len(rm.edges)
    assert 10 * len(encode_calls) < darts


SIMPLE_REGULAR_GRAPHS = [
    [(0, 1), (1, 2), (2, 0)],  # triangle
    [(i, (i + 1) % 5) for i in range(5)],  # pentagon
    list(itertools.combinations(range(4), 2)),  # K4
    [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],  # prism
    [(a, b) for a in range(3) for b in range(3, 6)],  # K3,3
    [(a, a | 1 << i) for a in range(8) for i in range(3) if not a >> i & 1],  # cube
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, 5 + i) for i in range(5)],  # Petersen
    list(itertools.combinations(range(5), 2)),  # K5
    [e for e in itertools.combinations(range(6), 2) if e not in ((0, 1), (2, 3), (4, 5))],  # octahedron
]


def test_pruned_starts_are_the_least_at_the_first_code_that_differs(encode_calls):
    """On random maps of simple regular graphs (random edge ends, vertex
    order, rotations and signs), every full encoding has the same first
    V + q + 1 entries, and the result is the full search's.  When some
    candidate's next entry is below 6q (its next dart leads to u_1), the
    candidates encoded are exactly those whose full encoding is least at
    that entry; otherwise every candidate is encoded, which on the
    triangle-free graphs is the same set, and on a rare prism map a
    superset of it."""
    rng = random.Random(131)
    seen = Counter()
    for trial in range(180):
        rm = random_map_on_graph(rng, SIMPLE_REGULAR_GRAPHS[trial % len(SIMPLE_REGULAR_GRAPHS)])
        q = len(rm.rotations[0])
        at = len(rm.vertices) + q + 1
        full = encodings_by_start(rm)
        assert len({code[:at] for code in full.values()}) == 1
        least = min(code[at] for code in full.values())
        encode_calls.clear()
        assert rm.canonical_encoding() == min(full.values())
        least_ones = sorted(k for k, code in full.items() if code[at] == least)
        assert sorted(encode_calls) == (least_ones if least < 6 * q else sorted(full))
        seen[least < 6 * q, len(least_ones) < len(full)] += 1
    assert seen[True, True] > 50 and seen[False, False] > 50 and seen[False, True] >= 1


@pytest.fixture
def start_calls(monkeypatch):
    """The arguments and the result of every ``RotationMap._starts`` call."""
    calls = []
    starts = RotationMap._starts

    def recorded(*args):
        result = starts(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(RotationMap, "_starts", staticmethod(recorded))
    return calls


@pytest.fixture
def key_calls(monkeypatch):
    """One entry per candidate that ``RotationMap._starts`` keys in full."""
    calls = []
    key = RotationMap._key

    def counted(*args):
        calls.append(args)
        return key(*args)

    monkeypatch.setattr(RotationMap, "_key", staticmethod(counted))
    return calls


def has_triangle(edges) -> bool:
    adjacent = {frozenset(e) for e in edges}
    vertices = {v for e in edges for v in e}
    return any({frozenset((a, c)), frozenset((b, c))} <= adjacent for a, b in edges for c in vertices)


def test_unpruned_starts_are_every_least_degree_candidate(start_calls):
    """On maps that are not pruned (several degrees, loops or repeated
    neighbours, degree below 2), the candidates are the one-phase oracle's:
    every dart at a vertex of least degree, in both senses."""
    rng = random.Random(151)
    maps = [random_signed_map(rng, rng.randint(1, 6), rng.randint(1, 9)) for _ in range(300)]
    maps.append(RotationMap(("u", "v"), ((0, 1),) * 3, ((0, 2, 4), (5, 3, 1)), (1, -1, 1)))
    unpruned = 0
    for rm in maps:
        start_calls.clear()
        try:
            rm.canonical_encoding()
        except ValidationError:
            pass  # disconnected: the starts are taken before the encoding fails
        for args, result in start_calls:
            assert result == starts_by_one_phase(*args)
            unpruned += start_codes_by_one_phase(*args) is None
    assert unpruned >= 150


def test_two_phase_starts_match_one_phase_keys(start_calls, key_calls):
    """On random maps of simple regular graphs and the maps of move walks,
    phase two keys exactly the candidates whose next dart leads to u_1
    (codes 4q .. 6q - 1 at index q + 1), and the start candidates are the
    one-phase oracle's, in its order.  When there are none, every least
    degree candidate is returned with no key taken.  Maps of triangle-free
    graphs take that path, where every one-phase key ties, and the walk
    maps the first."""
    rng = random.Random(139)
    maps = []
    for trial in range(90):
        edges = SIMPLE_REGULAR_GRAPHS[trial % len(SIMPLE_REGULAR_GRAPHS)]
        kind = "graph" if has_triangle(edges) else "triangle-free graph"
        maps.append((random_map_on_graph(rng, edges), kind))
    for n in (8, 10):
        maps += [(scheme_from_realization(d).rotmap, "walk") for d in seeded_walk(rng, cyclic(n), 6)]
    paths = Counter()
    for rm, kind in maps:
        start_calls.clear()
        key_calls.clear()
        rm.canonical_encoding()
        [(args, result)] = start_calls
        keyed = start_codes_by_one_phase(*args)
        q = len(rm.rotations[0])
        near = [c for c, _, _ in keyed if c < 6 * q]
        assert len(key_calls) == len(near)
        # with no candidate near, every one is returned, in the keyed order
        assert result == (starts_by_one_phase(*args) if near else [(d, r) for _, d, r in keyed])
        assert kind != "walk" or near
        assert kind != "triangle-free graph" or (not near and len({c for c, _, _ in keyed}) == 1)
        paths["two-phase" if near else "unkeyed"] += 1
    assert paths["two-phase"] > 20 and paths["unkeyed"] > 20


def test_dart_table_walks_match_tuple_walks():
    """Connectivity and orientability read off the dart table agree with
    walks over tuple darts, on random signed maps of multigraphs (loops,
    parallel edges, isolated vertices and several components among them)
    and on the maps of move walks."""
    rng = random.Random(137)
    maps = [random_signed_map(rng, rng.randint(1, 7), rng.randint(0, 9)) for _ in range(600)]
    maps += [scheme_from_realization(d).rotmap for n in (8, 9) for d in seeded_walk(rng, cyclic(n), 5)]
    seen = Counter()
    for rm in maps:
        connected, orientable = rm.is_connected(), rm.is_orientable()
        assert connected == is_connected_by_tuples(rm)
        assert orientable == is_orientable_by_tuples(rm)
        seen[connected, orientable] += 1
    assert min(seen[key] for key in itertools.product((True, False), repeat=2)) > 20


def test_regular_maps_encode_few_start_darts(encode_calls):
    """On the 6-regular maps of a move walk from the realization of cyclic
    (11_3), far fewer than the 4E candidates are encoded."""
    rng = random.Random(127)
    candidates = 0
    for s in map(scheme_from_realization, seeded_walk(rng, cyclic(11), 12)):
        s.rotmap.canonical_encoding()
        candidates += 4 * len(s.rotmap.edges)
    assert 0 < 10 * len(encode_calls) < candidates


def test_maps_with_repeated_neighbours_encode_every_start_dart(encode_calls):
    """Regular maps where a vertex meets a neighbour twice (the triangle's
    map, degree-4 schemes on at most three vertices) encode every dart in
    both senses, and give the full search's encoding."""
    _, s = realization_scheme(triangle())
    maps = [s.rotmap] + [t.rotmap for t in degree4_schemes()[::97]]
    for rm in maps:
        encode_calls.clear()
        assert rm.canonical_encoding() == canonical_encoding_by_full_search(rm)
        assert sorted(encode_calls) == [(x, r) for x in range(2 * len(rm.edges)) for r in (-1, 1)]


def test_canonical_encoding_rejects_disconnected_maps():
    # a degree-2 component and a degree-4 component, no edge at all, and
    # two loops beside a vertex without darts
    for _, args, _ in ENCODING_FAULTS:
        with pytest.raises(ValidationError):
            RotationMap(*args).canonical_encoding()


def test_rotation_rows_must_be_exactly_the_vertices():
    """A vertex without a rotation row, or a row past the last vertex
    (even one repeating a listed dart), is refused when the map is built."""
    refused = "one row per vertex"
    for rows in ((), ((),)):
        with pytest.raises(ValidationError, match=refused):
            RotationMap(("a", "b"), (), rows, ())
    vertices, edges, rotations, signature = dipole()
    rm = RotationMap(vertices, edges, rotations, signature)
    assert len(rm.vertices) - len(rm.edges) + len(rm.faces) == 2
    for extra in ((), (0,), (1,)):
        with pytest.raises(ValidationError, match=refused):
            RotationMap(vertices, edges, rotations + (extra,), signature)


def test_disconnected_scheme_rejected():
    (args, lines), _, _ = next(row[1:] for row in SCHEME_FAULTS if row[0] == "disconnected")
    with pytest.raises(DisconnectedScheme):
        EmbeddingScheme(RotationMap(*args), lines)


def test_low_degree_rejected():
    rm = RotationMap(("a", "b"), ((0, 1),) * 2, ((0, 2), (3, 1)), (1, 1))
    with pytest.raises(ValidationError):
        EmbeddingScheme(rm, (None, None))


# -- every validation branch, with its error type and message -----------------------

def dipole(vertices=("u", "v"), edges=((0, 1),) * 4, signature=(1,) * 4, rotations=None, u=None):
    """The arguments of a rotation map of four parallel edges from vertex
    u to vertex v, with some of its parts replaced."""
    rows = rotations or ((0, 2, 4, 6), (7, 5, 3, 1))
    return vertices, edges, rows if u is None else (u,) + rows[1:], signature


# Darts are ints 2e + end; a dart pair [e, end] that does not fold to one,
# such as an end of 2, is refused by the scheme reader
# (tests/test_json_loaders.py::DART_FAULTS).
ROTATION_MAP_FAULTS = [
    ("duplicate vertex", dipole(vertices=("u", "v", "u")), "duplicate vertex ids in rotation map"),
    ("short signature", dipole(signature=(1, 1, 1)), "signature length must match edge count"),
    ("zero sign", dipole(signature=(1, 1, 0, 1)), "signatures must be +1 or -1"),
    ("edge to a non-vertex", dipole(edges=((0, 1),) * 3 + ((0, 2),)), "edge endpoint 0/2 not a vertex"),
    ("edge from a negative index", dipole(edges=((0, 1),) * 3 + ((-1, 1),)),
     "edge endpoint -1/1 not a vertex"),
    ("missing row", dipole(rotations=((0, 2, 4, 6),)),
     "rotations must have one row per vertex and no other row"),
    ("extra row", dipole(rotations=((0, 2, 4, 6), (7, 5, 3, 1), ())),
     "rotations must have one row per vertex and no other row"),
    ("edge past the last", dipole(u=(0, 2, 4, 8)), "malformed dart 8 at 'u'"),
    ("negative edge", dipole(u=(-2, 2, 4, 6)), "malformed dart -2 at 'u'"),
    ("dart at the wrong vertex", dipole(u=(0, 2, 4, 7)), "dart 7 listed at wrong vertex 'u'"),
    ("dart twice", dipole(u=(0, 2, 0, 6)), "dart 0 listed twice"),
    ("dart missing", dipole(u=(0, 2, 4)), "rotations must cover every dart exactly once"),
    # two faults: the earlier check, or the earlier dart, speaks
    ("zero sign and duplicate vertex", dipole(vertices=("u", "v", "v"), signature=(0, 1, 1, 1)),
     "duplicate vertex ids in rotation map"),
    ("twice before the wrong vertex", dipole(u=(0, 0, 7, 6)), "dart 0 listed twice"),
    ("wrong vertex before twice", dipole(u=(7, 0, 0, 6)), "dart 7 listed at wrong vertex 'u'"),
    ("malformed after twice", dipole(u=(0, 0, 18, 6)), "dart 0 listed twice"),
]


@pytest.mark.parametrize(
    "args, message", [row[1:] for row in ROTATION_MAP_FAULTS], ids=[row[0] for row in ROTATION_MAP_FAULTS]
)
def test_rotation_map_refuses_each_fault_with_its_message(args, message):
    with pytest.raises(ValidationError) as caught:
        RotationMap(*args)
    assert type(caught.value) is ValidationError and str(caught.value) == message


SCHEME_FAULTS = [
    ("disconnected", ((tuple("abcd"), ((0, 1),) * 4 + ((2, 3),) * 4, (
        (0, 2, 4, 6), (7, 5, 3, 1), (8, 10, 12, 14), (15, 13, 11, 9),
    ), (1,) * 8), (None,) * 8), DisconnectedScheme, "embedding schemes must be connected"),
    ("degree 2", (("ab", ((0, 1),) * 2, ((0, 2), (3, 1)), (1, 1)), (None,) * 2),
     ValidationError, "vertex 'a' has degree 2; even degree >= 4 required"),
    ("degree 5", (("ab", ((0, 1),) * 5, ((0, 2, 4, 6, 8), (9, 7, 5, 3, 1)), (1,) * 5), (None,) * 5),
     ValidationError, "vertex 'a' has degree 5; even degree >= 4 required"),
    ("short lines", (dipole(), (None,) * 3), ValidationError, "need one line tag (or None) per edge"),
]


@pytest.mark.parametrize(
    "args, error, message", [row[1:] for row in SCHEME_FAULTS], ids=[row[0] for row in SCHEME_FAULTS]
)
def test_scheme_refuses_each_fault_with_its_message(args, error, message):
    rotmap_args, lines = args
    with pytest.raises(error) as caught:
        EmbeddingScheme(RotationMap(*rotmap_args), lines)
    assert type(caught.value) is error and str(caught.value) == message


ENCODING_FAULTS = [
    ("vertex without darts", ((0, 1), ((0, 0), (0, 0)), ((0, 2, 1, 3), ()), (1, 1)),
     "canonical encoding requires a connected map"),
    ("two components", (tuple("abcd"), ((0, 1),) * 2 + ((2, 3),) * 4, (
        (0, 2), (3, 1), (4, 6, 8, 10), (11, 9, 7, 5),
    ), (1,) * 6), "canonical encoding requires a connected map"),
    ("no edge", (("a",), (), ((),), ()), "canonical encoding requires an edge"),
]


@pytest.mark.parametrize(
    "args, message", [row[1:] for row in ENCODING_FAULTS], ids=[row[0] for row in ENCODING_FAULTS]
)
def test_canonical_encoding_refuses_each_fault_with_its_message(args, message):
    rm = RotationMap(*args)
    with pytest.raises(ValidationError) as caught:
        rm.canonical_encoding()
    assert type(caught.value) is ValidationError and str(caught.value) == message


def test_schemes_from_realizations_are_nonorientable():
    rng = random.Random(83)
    for _ in range(25):
        c = random_structure(rng, max_points=7, max_lines=7)
        _, s = realization_scheme(c)
        assert not trace_and_summarize(s).orientable


def test_genus_consistency():
    rng = random.Random(89)
    for _ in range(25):
        c = random_structure(rng, max_points=7, max_lines=7)
        _, s = realization_scheme(c)
        summary = trace_and_summarize(s)
        if summary.orientable:
            assert summary.euler % 2 == 0
            assert summary.genus == (2 - summary.euler) // 2
        else:
            assert summary.genus == 2 - summary.euler


# -- straight-ahead walks ---------------------------------------------------------


def test_triangle_walks():
    _, s = realization_scheme(triangle())
    walks = straight_ahead_walks(s)
    assert len(walks) == 3
    assert all(len(w) == 2 for w in walks)
    assert {w.line for w in walks} == {1, 2, 3}


def test_fano_walks():
    _, s = realization_scheme(fano())
    walks = straight_ahead_walks(s)
    assert len(walks) == 7
    assert all(len(w) == 3 for w in walks)


def test_walk_properties_across_corpus():
    """Realization walks: one per wire, simple, tagged with their line, with
    an odd number of negative edges.  On these schemes, three random
    transforms of each and every criterion-10 scheme, the walks are the
    tuple-dart oracle's and cover each edge once."""
    rng = random.Random(97)
    structures = [triangle(), fano(), mobius_kantor()] + [
        random_structure(rng, max_points=7, max_lines=7) for _ in range(100)
    ]
    schemes = degree4_schemes()
    for c in structures:
        d, s = realization_scheme(c)
        walks = straight_ahead_walks(s)
        assert len(walks) == d.n
        for w in walks:
            assert w.is_simple
            assert w.negative_count % 2 == 1
            assert w.line is not None
        schemes += [s] + [random_scheme_transform(rng, s) for _ in range(3)]
    for s in schemes:
        walks = straight_ahead_walks(s)
        assert walks == straight_ahead_walks_by_tuples(s)
        assert sorted(e for w in walks for e in w.edge_indices) == list(range(len(s.rotmap.edges)))


# -- fingerprints -----------------------------------------------------------------


def test_fingerprint_invariant_under_relabelling():
    rng = random.Random(101)
    _, s = realization_scheme(fano())
    fp = fingerprint(s)
    for _ in range(5):
        assert fingerprint(random_scheme_transform(rng, s)) == fp


def test_fingerprint_mutation_invariance_instance():
    d, s = realization_scheme(fano())
    moved = insert_digon(d, (1, 2), 0)
    assert fingerprint(scheme_from_realization(moved)) == fingerprint(s)


def test_fingerprint_separates_face_vectors():
    d, s = realization_scheme(fano())
    fano_b = fano_genus8_scheme()
    s1, s2 = trace_and_summarize(s), trace_and_summarize(fano_b)
    assert s1.face_vector != s2.face_vector
    assert fingerprint(s) != fingerprint(fano_b)


# -- the symmetric Fano map of genus 8 --------------------------------------------


def fano_genus8_scheme():
    """Search the 7-fold symmetric embedding schemes of the Fano map
    (lines {i, i+1, i+3} mod 7, edge cycles i -> i+1 -> i+3 -> i) for the
    one with face vector {5^7, 7}."""
    found = []
    for rotation_pattern, signs in _symmetric_fano_candidates():
        s = _build_symmetric_fano(rotation_pattern, signs)
        if s is None:
            continue
        summary = trace_and_summarize(s)
        if summary.face_vector == (5, 5, 5, 5, 5, 5, 5, 7):
            found.append((s, summary))
    assert found, "no symmetric scheme achieves the target face vector"
    return found[0][0]


def _symmetric_fano_candidates():
    # six dart slots per vertex; (line role, end) as described below
    slots = ["A", "B", "C", "D", "E", "F"]
    pairs = {"A": "B", "B": "A", "C": "D", "D": "C", "E": "F", "F": "E"}
    patterns = []
    others = ["C", "D", "E", "F"]
    for first in others:
        rest = [x for x in others if x not in (first, pairs[first])]
        for second in rest:
            pattern = ["A", first, second, "B", pairs[first], pairs[second]]
            patterns.append(pattern)
    sign_choices = [
        s
        for s in itertools.product((1, -1), repeat=3)
        if s[0] * s[1] * s[2] == -1
    ]
    for p in patterns:
        for s in sign_choices:
            yield p, s


def _build_symmetric_fano(pattern, signs):
    sign_s, sign_m, sign_l = signs
    edges = []
    signature = []
    lines = []
    edge_id = {}
    for j in range(7):
        for kind, (a, b), sg in (
            ("s", (j, (j + 1) % 7), sign_s),
            ("m", ((j + 1) % 7, (j + 3) % 7), sign_m),
            ("l", ((j + 3) % 7, j), sign_l),
        ):
            edge_id[(kind, j)] = len(edges)
            edges.append((a, b))
            signature.append(sg)
            lines.append(j)

    def slot_dart(i, slot):
        # A,B: the two darts of line i at i; C,D: line i-1; E,F: line i-3
        if slot == "A":
            return 2 * edge_id[("s", i)]
        if slot == "B":
            return 2 * edge_id[("l", i)] + 1
        if slot == "C":
            return 2 * edge_id[("s", (i - 1) % 7)] + 1
        if slot == "D":
            return 2 * edge_id[("m", (i - 1) % 7)]
        if slot == "E":
            return 2 * edge_id[("m", (i - 3) % 7)] + 1
        return 2 * edge_id[("l", (i - 3) % 7)]

    rotations = tuple(tuple(slot_dart(i, slot) for slot in pattern) for i in range(7))
    try:
        rm = RotationMap(tuple(range(7)), tuple(edges), rotations, tuple(signature))
        return EmbeddingScheme(rm, tuple(lines))
    except ValidationError:
        return None


def test_fano_genus8_map():
    s = fano_genus8_scheme()
    summary = trace_and_summarize(s)
    assert summary.V == 7
    assert summary.E == 21
    assert summary.F == 8
    assert summary.face_vector == (5, 5, 5, 5, 5, 5, 5, 7)
    assert summary.euler == -6
    assert not summary.orientable
    assert summary.genus == 8
    walks = straight_ahead_walks(s)
    assert len(walks) == 7
    for w in walks:
        assert len(w) == 3 and w.is_simple and w.negative_count % 2 == 1


# -- serialization -----------------------------------------------------------------


def test_scheme_json_roundtrip():
    _, s = realization_scheme(fano())
    data = scheme_to_json_dict(s)
    back = scheme_from_json_dict(data)
    assert fingerprint(back) == fingerprint(s)
    assert trace_and_summarize(back) == trace_and_summarize(s)
