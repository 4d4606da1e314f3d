import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quasiline import (
    are_isomorphic,
    build,
    configuration_signature,
    format_lines_text,
    is_lineal,
    levi_graph,
    parse_lines_text,
)
from quasiline.errors import DegreeTooLow, DuplicateId, ParseError, UnknownId, ValidationError

from oracles import (
    bfs_girth,
    cyclic,
    fano,
    is_lineal_by_pairs,
    isomorphism_by_backtracking,
    levi_adjacency_by_pairs,
    mobius_kantor,
    random_structure,
    triangle,
    triple_structure,
    two_lines_three_points,
)


def test_fano_builds_with_21_flags():
    c = fano()
    assert len(c.points) == 7
    assert len(c.lines) == 7
    assert len(c.flags) == 21


def test_triangle_builds_with_6_flags():
    c = triangle()
    assert len(c.flags) == 6


def test_point_on_single_line_rejected():
    with pytest.raises(DegreeTooLow) as exc:
        build(["p", "q"], ["l", "m"], [("p", "l"), ("q", "l"), ("p", "m")])
    assert exc.value.element == "q"


def test_line_with_single_point_rejected():
    with pytest.raises(DegreeTooLow):
        build(["p", "q"], ["l", "m"], [("p", "l"), ("q", "l"), ("p", "m"), ("p", "m")])


def test_unknown_flag_reference_rejected():
    with pytest.raises(UnknownId):
        build(["p", "q"], ["l"], [("p", "l"), ("q", "l"), ("r", "l")])


def test_unknown_id_names_the_first_bad_flag_under_every_hash_seed():
    # the flag named must not depend on the iteration order of a set of flags
    tests = Path(__file__).resolve().parent
    code = (
        "from quasiline import build\n"
        "from quasiline.errors import UnknownId\n"
        "try:\n"
        "    build(['a', 'b'], ['L', 'M'], [('a', 'L'), ('x', 'L'), ('y', 'M'), ('z', 'M')])\n"
        "except UnknownId as exc:\n"
        "    print(exc)\n"
    )
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONPATH": str(tests.parent / "src"), "PYTHONHASHSEED": str(seed)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.stdout == "flag references unknown point 'x'\n", (seed, done.stderr)


@pytest.mark.parametrize(
    "lookup, label, message",
    [
        ("lines_of", "zz", "unknown point 'zz'"),
        ("points_of", "zz", "unknown line 'zz'"),
        ("lines_of", "L1", "unknown point 'L1'"),
        ("points_of", "a", "unknown line 'a'"),
    ],
)
def test_incidence_lookups_refuse_labels_not_on_their_side(lookup, label, message):
    c = parse_lines_text("a b\nb c\nc a\n")
    with pytest.raises(UnknownId, match=message):
        getattr(c, lookup)(label)


def test_duplicate_and_clashing_labels_rejected():
    with pytest.raises(DuplicateId):
        build(["p", "p"], ["l"], [])
    with pytest.raises(DuplicateId):
        build(["p", "x"], ["x"], [])


def test_flags_deduplicated_silently():
    c = build(
        "ab",
        ["l", "m"],
        [("a", "l"), ("a", "l"), ("b", "l"), ("a", "m"), ("b", "m")],
    )
    assert len(c.flags) == 4


def test_levi_graph_fano():
    g = levi_graph(fano())
    assert g.vertex_count == 14
    assert g.edge_count == 21
    assert g.points == 7
    assert all(len(ns) == 3 for ns in g.neighbours)


def test_levi_graph_triangle_girth_six():
    c = triangle()
    g = levi_graph(c)
    assert g.vertex_count == 6
    assert g.edge_count == 6
    assert bfs_girth(c) == 6


def test_is_lineal():
    assert is_lineal(fano())
    assert is_lineal(mobius_kantor())
    assert not is_lineal(two_lines_three_points())


def test_lineal_iff_levi_girth_at_least_six():
    # also against the pairwise scan, on random structures and relabellings
    rng = random.Random(7)
    cases = [fano(), triangle(), two_lines_three_points(), mobius_kantor()]
    for _ in range(40):
        c = random_structure(rng)
        cases += [c, relabelled(rng, c)]
    for c in cases:
        assert is_lineal(c) == (bfs_girth(c) >= 6) == is_lineal_by_pairs(c)


def test_configuration_signature():
    assert configuration_signature(fano()) == (7, 3, 7, 3)
    assert configuration_signature(triangle()) == (3, 2, 3, 2)
    assert configuration_signature(mobius_kantor()) == (8, 3, 8, 3)
    mixed2 = build(
        "abc",
        ["l", "m", "k"],
        [
            ("a", "l"),
            ("b", "l"),
            ("c", "l"),
            ("a", "m"),
            ("b", "m"),
            ("a", "k"),
            ("c", "k"),
        ],
    )
    assert configuration_signature(mixed2) is None


def test_isomorphism_fano_relabelled():
    c1 = fano()
    mapping = {p: f"x{p}" for p in c1.points}
    mapping.update({l: f"y{l}" for l in c1.lines})
    c2 = build(
        [mapping[p] for p in c1.points],
        [mapping[l] for l in reversed(c1.lines)],
        [(mapping[p], mapping[l]) for p, l in c1.flags],
    )
    iso = are_isomorphic(c1, c2)
    assert iso is not None
    for p, l in c1.flags:
        assert (iso[p], iso[l]) in c2.flags


def test_isomorphism_different_sizes_is_none():
    assert are_isomorphic(fano(), mobius_kantor()) is None


def test_isomorphism_triangle_swapped_labels():
    c1 = triangle()
    c2 = build(
        "xyz",
        ["xy", "yz", "zx"],
        [("x", "xy"), ("y", "xy"), ("y", "yz"), ("z", "yz"), ("z", "zx"), ("x", "zx")],
    )
    assert are_isomorphic(c1, c2) is not None


def test_isomorphism_symmetric_with_inverse_witness():
    c1, c2 = fano(), fano()
    fwd = are_isomorphic(c1, c2)
    back = are_isomorphic(c2, c1)
    assert fwd is not None and back is not None


def test_non_isomorphic_same_size():
    # Fano vs the unique other 7-point 7-line triple system candidate:
    # perturb one line and repair degrees; structures differ.
    c1 = fano()
    lines = ["123", "145", "167", "246", "257", "347", "365"]
    c2 = build(
        "1234567",
        lines,
        [(p, l) for l in lines for p in l],
    )
    # c2 equals fano as a flag set ("365" vs "356" is the same point set),
    # so this must be isomorphic; use a genuinely different structure too.
    assert are_isomorphic(c1, c2) is not None
    other = build(
        "1234567",
        ["l1", "l2", "l3", "l4", "l5", "l6", "l7"],
        [(p, f"l{i}") for i, row in enumerate("123 145 167 246 257 345 367".split(), 1) for p in row],
    )
    assert are_isomorphic(c1, other) is None


def relabelled(rng, c):
    """``c`` under fresh random point and line names, both lists shuffled."""
    names = [f"x{i}" for i in range(len(c.points) + len(c.lines))]
    rng.shuffle(names)
    rename = dict(zip(c.points + c.lines, names))
    points = [rename[p] for p in c.points]
    lines = [rename[l] for l in c.lines]
    rng.shuffle(points)
    rng.shuffle(lines)
    return build(points, lines, [(rename[p], rename[l]) for p, l in c.flags])


def assert_isomorphism(mapping, c1, c2):
    assert {mapping[p] for p in c1.points} == set(c2.points)
    assert {mapping[l] for l in c1.lines} == set(c2.lines)
    assert {(mapping[p], mapping[l]) for p, l in c1.flags} == set(c2.flags)


def cycle_of_lines(n, first=0):
    """n two-point lines closing a cycle through n points, labelled
    v<first>, v<first + 1>, ... in their order along the cycle."""
    names = [f"v{k:04d}" for k in range(first, first + 2 * n)]
    points, lines = names[0::2], names[1::2]
    flags = [(points[k], lines[k]) for k in range(n)]
    flags += [(points[(k + 1) % n], lines[k]) for k in range(n)]
    return build(points, lines, flags)


def test_isomorphism_search_is_iterative():
    # a 1200-vertex Levi cycle is deeper than the default recursion limit
    rng = random.Random(113)
    c1 = cycle_of_lines(600)
    c2 = relabelled(rng, c1)
    assert_isomorphism(are_isomorphic(c1, c2), c1, c2)
    # two 20-cycles against one 40-cycle: refinement cannot tell them apart
    one = cycle_of_lines(40)
    a, b = cycle_of_lines(20), cycle_of_lines(20, first=40)
    two = build(a.points + b.points, a.lines + b.lines, a.flags | b.flags)
    assert are_isomorphic(two, relabelled(rng, one)) is None
    assert are_isomorphic(one, relabelled(rng, two)) is None


def in_search_order(c):
    """``c`` relabelled v0000, v0001, ... in breadth-first order from its
    first point, so that the search, which visits the vertices of one
    color class by label, meets each vertex next to one already mapped."""
    labels = c.points + c.lines
    order, seen = [0], {0}
    for v in order:
        for u in c.levi.neighbours[v]:
            if u not in seen:
                seen.add(u)
                order.append(u)
    rename = {labels[v]: f"v{k:04d}" for k, v in enumerate(order)}
    points, lines = [rename[p] for p in c.points], [rename[l] for l in c.lines]
    return build(points, lines, [(rename[p], rename[l]) for p, l in c.flags])


def golden_isomorphism_pairs():
    """Seeded pairs: catalogue-style random structures against a
    relabelling and against another random structure of the same size
    bounds; Fano and Möbius-Kantor relabelled; cyclic (n_3) up to n = 200
    relabelled; and pairs that colour refinement cannot tell apart but
    that are not isomorphic: cyclic (n_3) against lines {i, i+1, i+4},
    and one Levi cycle against two of half its length."""
    rng = random.Random(2014)
    pairs = []
    for i in range(80):
        v = 6 + i % 4
        c = random_structure(rng, v, 9)
        pairs += [(c, relabelled(rng, c)), (relabelled(rng, c), random_structure(rng, v, 9))]
    for c in (fano(), mobius_kantor()):
        pairs += [(c, relabelled(rng, c)) for _ in range(5)]
    for n in (7, 8, 9, 10, 12, 16, 25, 40, 64, 100, 150, 200):
        c = in_search_order(cyclic(n))
        pairs.append((c, relabelled(rng, c)))
    for n in (12, 13, 14, 15, 20):
        other = triple_structure([(i, (i + 1) % n, (i + 4) % n) for i in range(n)], prefix="E")
        pairs.append((in_search_order(cyclic(n)), relabelled(rng, other)))
    one = cycle_of_lines(12)
    a, b = cycle_of_lines(6), cycle_of_lines(6, first=12)
    two = build(a.points + b.points, a.lines + b.lines, a.flags | b.flags)
    pairs += [(one, relabelled(rng, two)), (two, relabelled(rng, one))]
    return pairs


def test_isomorphism_mappings_are_golden():
    """The mappings returned on the seeded pairs, key order included,
    hash to a recorded digest.  It was recorded with a search that also
    refused candidates adjacent to other used vertices; such a candidate
    is never part of a full mapping, so that test changed no answer."""
    found = []
    for c1, c2 in golden_isomorphism_pairs():
        mapping = are_isomorphic(c1, c2)
        if mapping is not None:
            assert_isomorphism(mapping, c1, c2)
            mapping = list(mapping.items())
        found.append(mapping)
    assert sum(m is not None for m in found) == 102
    digest = hashlib.sha256(json.dumps(found).encode()).hexdigest()
    assert digest == "292d3502af112ae1dc7c61aa9cf51628a84621d3e38b85db14fa2a43d6bf33bc"


def test_isomorphism_agrees_with_backtracking_oracle():
    rng = random.Random(127)
    found = 0
    for _ in range(150):
        c1 = random_structure(rng, max_points=6, max_lines=6)
        for c2 in (relabelled(rng, c1), random_structure(rng, max_points=6, max_lines=6)):
            mapping = are_isomorphic(c1, c2)
            assert (mapping is None) == (isomorphism_by_backtracking(c1, c2) is None)
            if mapping is not None:
                assert_isomorphism(mapping, c1, c2)
                found += 1
    assert found >= 150


def test_levi_adjacency_matches_pair_scan():
    # neighbour tuples keep declaration order, also under shuffled labels;
    # the structure's incidence lookups read its one Levi table
    rng = random.Random(131)
    structures = [fano(), triangle(), mobius_kantor(), cycle_of_lines(600)]
    for _ in range(150):
        c = random_structure(rng)
        structures += [c, relabelled(rng, c)]
    for c in structures:
        g = levi_graph(c)
        oracle = levi_adjacency_by_pairs(c)
        index = {v: i for i, v in enumerate(oracle)}
        assert g.neighbours == tuple(tuple(index[u] for u in ns) for ns in oracle.values())
        assert levi_graph(c) is g
        assert all(c.lines_of(p) == oracle[p] for p in c.points)
        assert all(c.points_of(l) == oracle[l] for l in c.lines)


def test_build_inverts_levi_graph():
    for c in (fano(), triangle(), mobius_kantor()):
        rebuilt = build(c.points, c.lines, c.flags)
        assert rebuilt == c


def test_parse_lines_text_roundtrip():
    for c in (fano(), mobius_kantor(), triangle()):
        text = format_lines_text(c)
        parsed = parse_lines_text(text)
        assert are_isomorphic(c, parsed) is not None
        written = {str(l): {str(p) for p in c.points_of(l)} for l in c.lines}
        assert {l: set(parsed.points_of(l)) for l in parsed.lines} == written


def cycle(points, lines):
    """Point i on lines i and i + 1, cyclically."""
    k = len(points)
    return build(points, lines, [(points[i], lines[(i + j) % k]) for i in range(k) for j in (0, 1)])


NOT_A_TOKEN = "label {!r} is not one token of the lines text"
WRITTEN_TWICE = "two labels are both written {!r}"
LINES = ["L1", "L2", "L3"]


@pytest.mark.parametrize(
    "points, lines, message",
    [
        (["a", "b", "c#1"], LINES, NOT_A_TOKEN.format("c#1")),
        ([(0, 1), "b", "c"], LINES, NOT_A_TOKEN.format("(0, 1)")),
        ([1, "1", "c"], LINES, WRITTEN_TWICE.format("1")),
        (["a", "", "c"], LINES, NOT_A_TOKEN.format("")),
        (["a", "b\tc", "d"], LINES, NOT_A_TOKEN.format("b\tc")),
        (["a", "b", "c"], ["L 1", "L2", "L3"], NOT_A_TOKEN.format("L 1")),
        (["a", "b", "c"], ["L1", "#", "L3"], NOT_A_TOKEN.format("#")),
        ([1, "b", "c"], ["1", "L2", "L3"], WRITTEN_TWICE.format("1")),
    ],
    ids=["hash in point", "tuple point", "int and text point", "empty point", "tab in point",
         "space in line", "hash line", "point and line"],
)
def test_format_lines_text_refuses_text_that_reads_back_otherwise(points, lines, message):
    """Each of these would be written as text that parses as another
    structure: a ``#`` starts a comment, whitespace splits a token, and
    two labels with one text merge."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        format_lines_text(cycle(points, lines))


def test_parse_lines_text_auto_names_and_comments():
    text = """
# a triangle
a b   # first line
b c
c a
"""
    c = parse_lines_text(text)
    assert c.lines == ("L1", "L2", "L3")
    assert configuration_signature(c) == (3, 2, 3, 2)


def test_parse_lines_text_named_lines():
    c = parse_lines_text("top: a b\nmid: b c\nbot: c a\n")
    assert c.lines == ("top", "mid", "bot")


def test_parse_lines_text_errors():
    with pytest.raises(ParseError):
        parse_lines_text("name:\n")
    with pytest.raises(ParseError):
        parse_lines_text("# only comments\n")
    err = None
    try:
        parse_lines_text("a b\n: x y\n")
    except ParseError as e:
        err = e
    assert err is not None and err.line == 2
