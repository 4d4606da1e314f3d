import importlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest

from quasiline.errors import HasDigons, QuasilineError
from quasiline.rotmaps import RotationMap
from quasiline.sequences import Move
from quasiline.wiring import (
    GeneralizedWiringDiagram,
    diagram_from_lines,
    drawing_from_json_dict,
    drawing_to_json_dict,
    straighten,
    trace_faces_disk,
)
from quasiline.wiring.faces import wire_map
from quasiline.wiring.straighten import (
    _audit,
    _chords_alternate,
    _circle_polygon,
    _crossing_graph,
    _embedded,
    _solve_exact,
    _strictly_convex,
    _sub,
    _tutte_positions,
    _winds_once,
)

from oracles import (
    _orient,
    as_diagram,
    PAPPUS_EUCLIDEAN_LINES,
    PAPPUS_LABELS,
    PAPPUS_POINTS,
    arcs_pairwise_disjoint,
    audit_by_arrangement_map,
    chord_lines_meet_inside,
    circle_parameters,
    circle_points,
    circle_points_by_doubling,
    crossing_graph_by_second_map,
    direction_cmp,
    face_orbits_by_tuples,
    numerators,
    random_allowable_sequence,
    random_generalized_sequence,
    random_laplacian_system,
    random_line_arrangement,
    random_long_window_sequence,
    realized,
    rotation_order_by_sort,
    schur_complement,
    seeded_arrangement,
    solve_by_dense_bareiss,
    solve_fraction_system,
    strictly_convex_homogeneous,
    triangle,
    tutte_graph,
    tutte_positions,
    tutte_positions_by_fractions,
    tutte_system,
    two_connected_by_articulation,
    two_lines_three_points,
    with_random_digons,
)
from perfbench.inputs import straighten_inputs
from test_guards import optimized_mode_drawing


def full_map(diagram):
    """The arrangement map of ``diagram`` and its arc table."""
    return wire_map(diagram, {i: i for i in range(diagram.event_count)})


def reextracted_face_vector(diagram, drawing):
    """Independent oracle: re-derive every rotation from the drawn
    geometry (sorting dart directions counterclockwise with exact
    arithmetic), rebuild the signed map, and re-trace its faces."""
    full, arcs = full_map(diagram)
    positions = drawing.positions
    first_last = {
        w: (path[0], path[-1])
        for w, path in zip(range(1, diagram.n + 1), drawing.wire_paths)
    }

    def dart_direction(vertex, dart):
        e, end = dart >> 1, dart & 1
        if full.signature[e] == 1:
            other = full.edges[e][1 - end]
            return _sub(positions[other], positions[vertex])
        first, last = first_last[arcs[e][0]]
        d = _sub(positions[last], positions[first])
        return d if end == 0 else (-d[0], -d[1])

    rotations = []
    for v, rot in enumerate(full.rotations):
        darts = list(rot)
        darts.sort(
            key=cmp_to_key(
                lambda d1, d2: direction_cmp(
                    dart_direction(v, d1), dart_direction(v, d2)
                )
            )
        )
        rotations.append(tuple(darts))
    rebuilt = RotationMap(full.vertices, full.edges, tuple(rotations), full.signature)
    return rebuilt.face_lengths()


def check_straightening(diagram):
    drawing = straighten(diagram)
    # zero bends: every wire is drawn as segments broken only at crossings
    for w, path in zip(range(1, diagram.n + 1), drawing.wire_paths):
        assert path == diagram.wire_events(w)
        assert len(set(path)) == len(path)
    # outer polygon is strictly convex
    poly = [drawing.positions[v] for v in drawing.outer_cycle]
    k = len(poly)
    for i in range(k):
        assert _orient(poly[i], poly[(i + 1) % k], poly[(i + 2) % k]) > 0
    # face structure is preserved under exact re-extraction
    expected = tuple(sorted(len(f) for f in trace_faces_disk(diagram)))
    assert reextracted_face_vector(diagram, drawing) == expected
    # the O(E) embedding check agrees with the pairwise segment oracle
    assert arcs_pairwise_disjoint(diagram, drawing.positions)
    # the combinatorial chord check agrees with the pairwise line oracle
    assert chord_lines_meet_inside(drawing.positions, drawing.outer_cycle, drawing.chords)
    return drawing


def test_triangle_straightens_to_three_lines():
    d = realized(triangle())
    drawing = check_straightening(d)
    assert len(drawing.outer_cycle) == 3
    assert len(drawing.chords) == 3
    # each wire's chord spans its two crossings: the wires are straight lines
    for w, (a, b) in enumerate(drawing.chords, start=1):
        assert (a, b) == (d.wire_events(w)[0], d.wire_events(w)[-1])


def test_digon_diagram_rejected():
    c = two_lines_three_points()
    d = realized(c)
    with pytest.raises(HasDigons):
        straighten(d)


def digon_corpus():
    """Random generalized diagrams of 2 to 7 wires (greedy finishes after
    random windows, long windows at the ends of the tracks, allowable
    sequences), most with up to two digons inserted at random slots."""
    rng = random.Random(1980)
    for _ in range(1500):
        n = rng.randint(2, 7)
        kind = 0 if n == 2 else rng.randrange(3)
        if kind == 0:
            seq = random_generalized_sequence(rng, n)
        elif kind == 1:
            seq = random_long_window_sequence(rng, n)
        else:
            seq = random_allowable_sequence(rng, n)
        yield with_random_digons(rng, as_diagram(seq), rng.choice((0, 0, 1, 2)))


def test_digon_count_matches_face_trace():
    """The digons of the band pass are the 2-sided face orbits of the
    arrangement map, bounded ones and ones through infinity alike, and
    straighten raises HasDigons with that count; a diagram with none
    straightens.  A digon lies at infinity when its orbit crosses an arc
    of signature -1."""
    seen = Counter()
    for d in digon_corpus():
        paths = tuple(d.wire_events(w) for w in range(1, d.n + 1))
        rm, _ = full_map(d)
        digons = [orbit for orbit in rm.faces if len(orbit) == 2]
        assert sum(len(face) == 2 for face in trace_faces_disk(d)) == len(digons)
        if not digons:
            check_straightening(d)
            seen["digon-free"] += 1
            continue
        message = f"^{len(digons)} digon\\(s\\) found; straightening needs a digon-free diagram$"
        with pytest.raises(HasDigons, match=message):
            _crossing_graph(d, paths)
        with pytest.raises(HasDigons, match=message):
            straighten(d)
        for orbit in digons:
            infinite = any(rm.signature[x >> 2] == -1 for x in orbit)
            seen["at infinity" if infinite else "bounded"] += 1
        seen[f"n = {d.n}"] += 1
    assert seen["digon-free"] >= 100 and seen["bounded"] >= 100
    assert seen["at infinity"] >= 100
    assert seen["n = 2"] >= 50 and seen["n = 3"] >= 50


def test_digons_take_precedence_over_other_straightening_errors():
    # two wires crossing once: two digons, one vertex, no crossing graph arcs
    with pytest.raises(HasDigons, match="^2 digon"):
        straighten(GeneralizedWiringDiagram(2, (Move(1, 2),)))
    # three wires through one point: every wire has a single crossing
    with pytest.raises(HasDigons, match="^3 digon"):
        straighten(GeneralizedWiringDiagram(3, (Move(1, 3),)))


def test_pappus_straightens_with_preserved_faces():
    d = diagram_from_lines(PAPPUS_EUCLIDEAN_LINES, PAPPUS_POINTS, PAPPUS_LABELS)
    check_straightening(d)


def test_quasiline_alternating_braid_straightens():
    # three wires, each pair crossing three times, no digons: the
    # alternating braid is the smallest genuinely quasiline instance
    from quasiline import make_sequence

    seq = make_sequence(3, [(1, 2), (2, 2)] * 4 + [(1, 2)])
    d = as_diagram(seq)
    drawing = check_straightening(d)
    assert len(drawing.positions) == 9


def test_random_pseudoline_diagrams_straighten():
    rng = random.Random(79)
    done = 0
    while done < 20:
        n = rng.randint(3, 7)
        seq = random_allowable_sequence(rng, n)
        d = as_diagram(seq)
        check_straightening(d)
        done += 1


def test_random_euclidean_arrangements_straighten():
    rng = random.Random(2006)
    for n in (3, 4, 5, 5, 6, 6, 7):
        check_straightening(diagram_from_lines(random_line_arrangement(rng, n)))


@pytest.mark.parametrize("n", [20, 25])
def test_large_euclidean_arrangements_straighten(n):
    check_straightening(seeded_arrangement(n))


def test_twenty_line_drawing_bytes_are_golden():
    # digest recorded from the dense-elimination solver (any exact solve gives
    # the same bytes); the optimized-mode guard checks it under python -O
    optimized_mode_drawing()


def sparse(matrix):
    """The rows of a dense matrix as dicts of their nonzero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def dense(rows):
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


def solve_sparse(matrix, rhs):
    return _solve_exact(sparse(matrix), rhs, 1)


def integer_rhs(rhs):
    """A rational rhs as integers over the lcm of its denominators, and
    that lcm."""
    scale = math.lcm(*(x.denominator for row in rhs for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rhs], scale


def solve_over(solve, matrix, rhs):
    """An integer solver on a rational rhs: scale the rhs to integers
    over the lcm of its denominators, solve, and divide back.  The
    returned determinant must be positive."""
    rows, scale = integer_rhs(rhs)
    nums, det = solve(matrix, rows)
    assert det > 0
    return [[Fraction(x, det * scale) for x in row] for row in nums]


def test_exact_solve_matches_fraction_oracle():
    rng = random.Random(1968)
    for _ in range(40):
        matrix, rhs = random_laplacian_system(rng, rng.randint(1, 12), rng.randint(1, 5))
        assert solve_over(solve_sparse, matrix, rhs) == solve_fraction_system(matrix, rhs)


def test_exact_solve_pivots_and_rejects_singular_systems():
    rng = random.Random(1963)
    solved = 0
    while solved < 30:
        m = rng.randint(1, 6)
        matrix = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(m)] for _ in range(m)]
        rhs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))] for _ in range(m)]
        try:
            expected = solve_fraction_system(matrix, rhs)
        except ValueError:
            with pytest.raises(QuasilineError):
                solve_over(solve_by_dense_bareiss, matrix, rhs)
            continue
        assert solve_over(solve_by_dense_bareiss, matrix, rhs) == expected
        solved += 1


def test_sparse_solve_matches_dense_oracle_on_random_laplacians():
    """Tutte systems of random connected graphs with 1 to 60 interior
    vertices: the minimum-degree elimination returns exactly the dense
    Bareiss (nums, det)."""
    rng = random.Random(1981)
    for m in list(range(1, 13)) + [rng.randint(13, 60) for _ in range(28)]:
        matrix, rhs = random_laplacian_system(rng, m, rng.randint(1, 8))
        rows, _ = integer_rhs(rhs)
        assert solve_sparse(matrix, rows) == solve_by_dense_bareiss(matrix, rows)


def tutte_problem(diagram):
    """The arguments straighten passes to :func:`_tutte_positions` for
    ``diagram``: event count, wire paths, internal faces and the outer
    walk pinned to the mirrored circle polygon."""
    paths = tuple(diagram.wire_events(w) for w in range(1, diagram.n + 1))
    faces, outer = _crossing_graph(diagram, paths)
    polygon, _ = _circle_polygon(len(outer))
    boundary = {v: (x, -y) for v, (x, y) in zip(reversed(outer), polygon)}
    return diagram.event_count, paths, faces, boundary


def dense_star_solve(event_count, paths, faces, boundary):
    """(placed, det) as :func:`_tutte_positions` returns them, from the
    dense Bareiss oracle on the whole Tutte system, face stars included,
    and that system's row count."""
    adjacency = star_ids(tutte_graph(event_count, paths, faces), event_count)
    interior = [v for v in adjacency if v not in boundary]
    rows, rhs = tutte_system(adjacency, boundary, interior)
    nums, det = solve_by_dense_bareiss(dense(rows), rhs)
    placed = {v: (x * det, y * det) for v, (x, y) in boundary.items()}
    placed.update((v, tuple(num)) for v, num in zip(interior, nums))
    return [placed[v] for v in range(len(adjacency))], det, len(rows)


def test_sparse_solve_matches_dense_oracle_on_tutte_systems():
    """The Tutte system of every seeded 5- to 14-line arrangement, its
    face stars eliminated in closed form and the events solved sparsely:
    the same (placed, det) as the dense Bareiss oracle on the whole
    system, stars included."""
    sizes = []
    for n in range(5, 15):
        problem = tutte_problem(seeded_arrangement(n))
        placed, det, size = dense_star_solve(*problem)
        assert _tutte_positions(*problem) == (placed, det)
        sizes.append(size)
    assert max(sizes) > 100


def singular_laplacians():
    """Random Tutte systems with one more interior component that has no
    pinned neighbour, its rows shuffled in among the others."""
    rng = random.Random(1967)
    for _ in range(30):
        matrix, rhs = random_laplacian_system(rng, rng.randint(1, 20), rng.randint(1, 5))
        loose, _ = random_laplacian_system(rng, rng.randint(2, 8), 0)
        m, r = len(matrix), len(loose)
        block = [row + [0] * r for row in matrix] + [[0] * m + row for row in loose]
        rows = integer_rhs(rhs)[0] + [[0, 0]] * r
        order = rng.sample(range(m + r), m + r)
        yield [[block[i][j] for j in order] for i in order], [rows[i] for i in order]


def test_sparse_solve_rejects_singular_and_indefinite_systems():
    for matrix, rhs in singular_laplacians():
        with pytest.raises(QuasilineError, match="singular barycentric system"):
            solve_sparse(matrix, rhs)
    # an interior component with no pinned neighbour, through _tutte_positions:
    # arcs 0-1 and 2-3, event 3 pinned
    with pytest.raises(QuasilineError, match="singular barycentric system"):
        _tutte_positions(4, [[0, 1], [2, 3]], [], {3: (1, 2)})
    for matrix in ([[0, 1], [1, 0]], [[-1]], [[1, 2], [2, 1]], [[2, -1], [0, 2]]):
        with pytest.raises(QuasilineError):
            solve_sparse(matrix, [[1, 1]] * len(matrix))


def test_sparse_solve_on_general_matrices_solves_or_raises_typed_errors():
    """The matrices of the pivoting test, and more: the library solver
    either returns the oracle's solution or raises QuasilineError, never
    another exception."""
    rng = random.Random(1964)
    outcomes = set()
    for _ in range(300):
        m = rng.randint(1, 6)
        matrix = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(m)] for _ in range(m)]
        if rng.random() < 0.5:
            matrix = [[matrix[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
        rhs = [[rng.randint(-9, 9)] for _ in range(m)]
        try:
            result = solve_sparse(matrix, rhs)
        except QuasilineError:
            outcomes.add(False)
            continue
        assert result == solve_by_dense_bareiss(matrix, rhs)
        outcomes.add(True)
    assert outcomes == {True, False}


def test_strictly_convex_polygon_check():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert _strictly_convex(square)
    assert not _strictly_convex(square[::-1])  # clockwise
    assert not _strictly_convex([(0, 0), (1, 0), (2, 0), (1, 1)])  # flat corner
    assert not _strictly_convex([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)])  # reflex
    pentagon, _ = _circle_polygon(5)
    pentagram = [pentagon[(2 * i) % 5] for i in range(5)]  # winds twice
    assert _strictly_convex(pentagon)
    assert not _strictly_convex(pentagram)


def test_rotation_audit_matches_sort_oracle():
    # directions round one point: sorted by angle and turned, then maybe
    # one repeated (or scaled), one replaced by its opposite, or two swapped
    rng = random.Random(23)
    pool = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]
    by_angle = cmp_to_key(direction_cmp)
    verdicts = set()
    for _ in range(3000):
        directions = sorted(rng.sample(pool, rng.randint(2, 8)), key=by_angle)
        shift = rng.randrange(len(directions))
        directions = directions[shift:] + directions[:shift]
        i, j = rng.randrange(len(directions)), rng.randrange(len(directions))
        kind = rng.randrange(4)
        if kind == 1:
            directions[i] = tuple(rng.randint(1, 3) * c for c in directions[j])
        elif kind == 2:
            directions[i] = (-directions[i][0], -directions[i][1])
        elif kind == 3:
            directions[i], directions[j] = directions[j], directions[i]
        verdict = rotation_order_by_sort(directions)
        assert _winds_once(directions) == verdict, directions
        verdicts.add(verdict)
    assert verdicts == {True, False}


def centred_stars(positions, faces):
    return [
        tuple(sum(positions[w][i] for w in cycle) / len(cycle) for i in (0, 1))
        for cycle in faces
    ]


def perturbed_drawings():
    """Drawings of seeded random line arrangements, each with its internal
    faces and 25 copies in which one inner crossing is moved to a random
    place on the line through another crossing."""
    rng = random.Random(2014)
    for n in (5, 6, 6, 7):
        d = diagram_from_lines(random_line_arrangement(rng, n))
        drawing = straighten(d)
        faces, _ = _crossing_graph(d, drawing.wire_paths)
        inner = [v for v in range(d.event_count) if v not in drawing.outer_cycle]
        variants = []
        for _ in range(25 if inner else 0):
            positions = list(drawing.positions)
            v = rng.choice(inner)
            u = rng.randrange(d.event_count)
            t = Fraction(rng.randint(-20, 20), 8)
            positions[v] = tuple(p + t * (q - p) for p, q in zip(positions[v], positions[u]))
            variants.append(positions)
        yield d, drawing, faces, variants


def test_embedding_check_is_sound_against_pairwise_oracle():
    """Move one crossing of a correct drawing to random places, re-centre
    the face stars, and compare the O(E) check with the pairwise audit:
    whenever the check passes, the arcs must be pairwise disjoint."""
    verdicts = set()
    for d, drawing, faces, variants in perturbed_drawings():
        stars = centred_stars(drawing.positions, faces)
        polygon = [drawing.positions[v] for v in drawing.outer_cycle]
        assert _embedded(drawing.positions, polygon, stars, faces)
        # the same drawing with its outer cycle listed clockwise is rejected
        assert not _embedded(drawing.positions, polygon[::-1], stars, faces)
        for positions in variants:
            stars = centred_stars(positions, faces)
            fast = _embedded(positions, polygon, stars, faces)
            if fast:
                assert arcs_pairwise_disjoint(d, positions)
            verdicts.add(fast)
    assert verdicts == {True, False}


def test_audit_verdicts_agree_on_integer_and_fraction_points():
    """The perturbed drawings, audited once as Fraction points and once as
    integer numerators over their common denominator: the embedding check
    and the full audit give the same verdicts."""
    verdicts = set()
    for d, drawing, faces, variants in perturbed_drawings():
        paths = drawing.wire_paths
        outer, chords = list(drawing.outer_cycle), list(drawing.chords)
        m = d.event_count
        for positions in [list(drawing.positions)] + variants:
            stars = centred_stars(positions, faces)
            nums, _ = numerators(positions + stars)
            assert _embedded(
                nums[:m], [nums[v] for v in outer], nums[m:], faces
            ) == _embedded(positions, [positions[v] for v in outer], stars, faces)
            verdict = _audit(d, paths, nums[:m], nums[m:], faces, outer, chords)
            assert verdict == _audit(d, paths, positions, stars, faces, outer, chords)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_window_rotation_audit_matches_arrangement_map_oracle():
    """The audit that reads every rotation from its crossing's window
    gives the verdict of the oracle that reads it from the arrangement
    map, on the perturbed drawings and on each drawing with one wire's
    chord pair reversed.  A reversed chord leaves the points and the
    embedding as they are, so some drawings fail the rotation audit
    alone."""
    verdicts = set()
    rotation_only = 0
    for d, drawing, faces, variants in perturbed_drawings():
        full, arcs = full_map(d)
        paths, outer = drawing.wire_paths, list(drawing.outer_cycle)
        chords = list(drawing.chords)
        cases = [(positions, chords) for positions in [list(drawing.positions)] + variants]
        for w in range(d.n):
            reversed_chord = chords[:w] + [chords[w][::-1]] + chords[w + 1 :]
            cases.append((list(drawing.positions), reversed_chord))
        for positions, used in cases:
            stars = centred_stars(positions, faces)
            verdict = _audit(d, paths, positions, stars, faces, outer, used)
            assert verdict == audit_by_arrangement_map(
                full, arcs, positions, stars, faces, outer, used
            )
            verdicts.add(verdict)
            polygon = [positions[v] for v in outer]
            rotation_only += (
                not verdict
                and len(set(positions)) == len(positions)
                and _embedded(positions, polygon, stars, faces)
            )
    assert verdicts == {True, False}
    assert rotation_only


def straighten_corpus():
    """The diagrams the straightening tests draw: random allowable
    sequences, the quasiline braid, Pappus, the criterion-9 diagrams and
    seeded random line arrangements."""
    from quasiline import make_sequence

    rng = random.Random(79)
    for _ in range(20):
        yield as_diagram(random_allowable_sequence(rng, rng.randint(3, 7)))
    yield as_diagram(make_sequence(3, [(1, 2), (2, 2)] * 4 + [(1, 2)]))
    yield diagram_from_lines(PAPPUS_EUCLIDEAN_LINES, PAPPUS_POINTS, PAPPUS_LABELS)
    yield realized(triangle())
    rng = random.Random(84)
    count = 0
    while count < 19:
        d = as_diagram(random_allowable_sequence(rng, rng.randint(3, 7)))
        if all(len(f) != 2 for f in trace_faces_disk(d)):
            count += 1
            yield d
    rng = random.Random(2006)
    for n in (3, 4, 5, 5, 6, 6, 7):
        yield diagram_from_lines(random_line_arrangement(rng, n))


def star_ids(mapping, event_count):
    """``mapping`` with every vertex ("star", s) of the oracles renamed to
    the library's id event_count + s, in keys and in adjacency lists."""

    def rename(v):
        return event_count + v[1] if isinstance(v, tuple) else v

    return {
        rename(v): [rename(u) for u in x] if isinstance(x, list) else x
        for v, x in mapping.items()
    }


def test_integer_tutte_positions_match_fraction_oracle():
    """On the one polygon straighten lays, the integer positions over
    D = det·L equal the index-map oracle's integers and the Fraction
    Tutte positions, and the drawing holds them.  The polygon's
    numerators are those of the Fraction circle points."""
    for d in straighten_corpus():
        drawing = straighten(d)
        m, paths = d.event_count, drawing.wire_paths
        faces, outer_walk = _crossing_graph(d, paths)
        circle = circle_points(len(outer_walk), 0)
        polygon, scale = _circle_polygon(len(outer_walk))
        assert (polygon, scale) == numerators(circle)
        boundary = {v: (x, -y) for v, (x, y) in zip(reversed(outer_walk), polygon)}
        placed, det = _tutte_positions(m, paths, faces, boundary)
        assert det > 0
        adjacency = tutte_graph(m, paths, faces)
        interior = [v for v in adjacency if v not in outer_walk]
        oracle, oracle_det = tutte_positions(adjacency, boundary, interior)
        assert det == oracle_det
        assert placed == [oracle[v] for v in range(m)] + [
            oracle[("star", s)] for s in range(len(faces))
        ]
        expected = tutte_positions_by_fractions(
            adjacency,
            {v: (x, -y) for v, (x, y) in zip(reversed(outer_walk), circle)},
            interior,
        )
        denominator = det * scale
        assert {
            v: (Fraction(x, denominator), Fraction(y, denominator))
            for v, (x, y) in enumerate(placed)
        } == star_ids(expected, m)
        assert drawing.positions == tuple(expected[v] for v in range(m))


def crossing_graph_corpus():
    """:func:`straighten_corpus`, the straighten-euclid benchmark
    arrangements of seeds 0-3 and 300 digon-free random allowable
    sequences of 3 to 8 wires."""
    yield from straighten_corpus()
    for seed in range(4):
        for _, arrangement in straighten_inputs(seed):
            yield diagram_from_lines(
                arrangement["lines"], arrangement.get("points", ()), arrangement.get("labels")
            )
    rng = random.Random(1410)
    count = 0
    while count < 300:
        d = as_diagram(random_allowable_sequence(rng, rng.randint(3, 8)))
        if all(len(f) != 2 for f in trace_faces_disk(d)):
            count += 1
            yield d


def least_rotation(cycle):
    """The least rotation of a cycle's vertex list, its direction kept."""
    return min(cycle[i:] + cycle[:i] for i in range(len(cycle)))


def test_crossing_graph_faces_match_second_map_oracle(monkeypatch):
    """Faces read off the bands equal the faces of the crossing graph
    built as a map of its own: the same internal cycles, each up to
    rotation and in any order, the same outer walk, from the same first
    vertex, and the same Tutte adjacency.  The solver
    is handed the Schur complement of the face stars in the system the
    index-map oracle builds on that adjacency, computed in Fractions
    (rows on the interior events in order, and rhs), times P, with P, the
    determinant of the stars' block, as its starting pivot.  The
    Hopcroft-Tarjan oracle finds every crossing graph 2-connected."""
    module = importlib.import_module("quasiline.wiring.straighten")
    systems = []

    def recorded(rows, rhs, pivot):
        systems.append(([dict(row) for row in rows], [list(b) for b in rhs], pivot))
        return _solve_exact(rows, rhs, pivot)

    monkeypatch.setattr(module, "_solve_exact", recorded)
    for d in crossing_graph_corpus():
        m, paths = d.event_count, tuple(d.wire_events(w) for w in range(1, d.n + 1))
        gmap, faces, outer, adjacency = crossing_graph_by_second_map(d, *full_map(d))
        traced, walk = _crossing_graph(d, paths)
        assert sorted(map(least_rotation, traced)) == sorted(map(least_rotation, faces))
        assert walk == outer
        assert tutte_graph(m, paths, faces) == adjacency
        polygon, _ = _circle_polygon(len(outer))
        boundary = dict(zip(reversed(outer), polygon))
        systems.clear()
        _tutte_positions(m, paths, faces, boundary)
        interior = [v for v in star_ids(adjacency, m) if v not in boundary]
        rows, rhs = tutte_system(star_ids(adjacency, m), boundary, interior)
        stars = [i for i, v in enumerate(interior) if v >= m]
        complement, reduced, block = schur_complement(rows, rhs, stars)
        assert systems == [(
            [{j: block * x for j, x in row.items()} for row in complement],
            [[block * x for x in b] for b in reduced],
            block,
        )]
        assert two_connected_by_articulation(gmap)


def test_star_block_matches_dense_solve_of_the_whole_system():
    """Over the crossing-graph corpus, the Tutte positions with the face
    stars eliminated in closed form, stars and det included, equal the
    dense Bareiss solve of the whole system."""
    for d in crossing_graph_corpus():
        problem = tutte_problem(d)
        placed, det, _ = dense_star_solve(*problem)
        assert _tutte_positions(*problem) == (placed, det)


def face_walks_simple(gmap):
    """The face-walk criterion: every sense-1 face walk of a map with only
    positive edges visits each vertex at most once."""
    walks = [
        [gmap.edges[e][end] for (e, end), _ in orbit]
        for orbit in face_orbits_by_tuples(gmap)
        if orbit[0][1] == 1
    ]
    return all(len(set(walk)) == len(walk) for walk in walks)


def glued_at(a, b, u, v):
    """The plane maps ``a`` and ``b`` glued at one vertex: ``b``'s vertex
    ``v`` becomes ``a``'s vertex ``u``, whose rotation is followed by
    ``v``'s, and ``b``'s other vertices follow ``a``'s, renamed apart."""
    rest = [w for w in range(len(b.vertices)) if w != v]
    index = {w: len(a.vertices) + k for k, w in enumerate(rest)}
    index[v] = u
    edges = a.edges + tuple((index[x], index[y]) for x, y in b.edges)
    moved = [tuple(x + 2 * len(a.edges) for x in rot) for rot in b.rotations]
    rotations = list(a.rotations) + [moved[w] for w in rest]
    rotations[u] += moved[v]
    vertices = a.vertices + tuple(("b", b.vertices[w]) for w in rest)
    return RotationMap(vertices, edges, tuple(rotations), (1,) * len(edges))


def test_face_walk_criterion_matches_articulation_oracle():
    """On crossing graphs, and on two of them glued at one vertex (still
    plane, now with a cut vertex), the face-walk criterion and
    Hopcroft-Tarjan give the same verdict."""
    rng = random.Random(2001)
    graphs = [
        crossing_graph_by_second_map(d, *full_map(d))[0] for d in straighten_corpus()
    ]
    for a, b in zip(graphs, graphs[1:] + graphs[:1]):
        assert face_walks_simple(a) and two_connected_by_articulation(a)
        for u in rng.sample(range(len(a.vertices)), 3):
            glued = glued_at(a, b, u, rng.randrange(len(b.vertices)))
            assert len(glued.vertices) - len(glued.edges) + len(glued.faces) == 2
            assert not face_walks_simple(glued)
            assert not two_connected_by_articulation(glued)


def test_straighten_builds_no_rotation_map(monkeypatch):
    built = []
    check = RotationMap.__post_init__
    monkeypatch.setattr(
        RotationMap, "__post_init__", lambda self: built.append(self) or check(self)
    )
    for d in straighten_corpus():
        built.clear()
        straighten(d)
        assert built == []


def test_chord_and_audit_failures_raise_their_own_messages(monkeypatch):
    """Forced to fail, the chord check and the audit each raise their own
    message; the chord check raises before any polygon is laid, and the
    audit after the one polygon."""
    module = importlib.import_module("quasiline.wiring.straighten")
    laid = []
    circle_polygon = module._circle_polygon
    monkeypatch.setattr(module, "_circle_polygon", lambda k: laid.append(k) or circle_polygon(k))
    d = seeded_arrangement(6)
    monkeypatch.setattr(module, "_audit", lambda *args: False)
    with pytest.raises(QuasilineError, match="^the straight-line drawing failed its audit$"):
        straighten(d)
    assert len(laid) == 1
    monkeypatch.setattr(module, "_chords_alternate", lambda *args: False)
    with pytest.raises(QuasilineError, match="^wire chords do not alternate round the outer walk"):
        straighten(d)
    assert len(laid) == 1


def test_chord_alternation_matches_geometric_oracle():
    """Random chord sets on strictly convex polygons (rational circle
    points, or points on the parabola y = x^2), with the vertices given
    shuffled ids: the alternation test and the pairwise line oracle
    return the same verdict, including chords that share one end or both
    ends."""
    rng = random.Random(1989)
    verdicts = set()
    shares = set()
    for _ in range(600):
        k = rng.randint(3, 12)
        if rng.random() < 0.5:
            polygon = circle_points(k, rng.randrange(3))
        else:
            xs = sorted(rng.sample(range(-40, 41), k))
            polygon = [(Fraction(x, 7), Fraction(x * x, 49)) for x in xs]
        assert _strictly_convex(polygon)
        walk = rng.sample(range(k), k)
        positions = [None] * k
        for v, p in zip(walk, polygon):
            positions[v] = p
        chords = []
        for _ in range(rng.randint(2, 5)):
            roll = rng.random()
            if chords and roll < 0.1:
                chords.append(rng.choice(chords)[::-1])
            elif chords and roll < 0.3:
                end = rng.choice(rng.choice(chords))
                chords.append((end, rng.choice([v for v in walk if v != end])))
            else:
                chords.append(tuple(rng.sample(walk, 2)))
        for c1, c2 in itertools.combinations(chords, 2):
            shares.add(len(set(c1) & set(c2)))
        fast = _chords_alternate(walk, chords)
        assert fast == chord_lines_meet_inside(positions, walk, chords)
        verdicts.add(fast)
    assert verdicts == {True, False}
    assert shares == {0, 1, 2}


def test_circle_polygon_doubles_q_past_a_collision():
    # k = 202 is the smallest polygon whose parameters collide at q = 64;
    # they are distinct at q = 128, where the float retry shifted every angle
    assert len(set(circle_parameters(202, 64))) < 202
    assert len(set(circle_parameters(202, 128))) == 202
    for k in (3, 7, 20, 202):
        points, scale = _circle_polygon(k)
        assert len(set(points)) == k
        assert all(x * x + y * y == scale * scale for x, y in points)
        assert _strictly_convex(points)
    assert _circle_polygon(202) != numerators(circle_points(202, 0))


def test_circle_polygon_numerators_match_fraction_points():
    """Every polygon of 3 to 150 points, laid straight to numerators from
    its tangent parameters, equals the Fraction circle points scaled to
    the lcm of their denominators."""
    for k in range(3, 151):
        assert _circle_polygon(k) == numerators(circle_points(k, 0))


def test_circle_polygon_lays_every_size_the_float_retry_refused():
    """Every k in 3 ... 600 gives k distinct points, the doubling oracle's
    homogeneous points over one common scale, in strictly convex
    position.  Wherever the parameters at q = 64 are distinct (every k up
    to 201 and three more), the polygon is the one the float retry laid;
    k = 204, where every retry collided until the float product
    overflowed, is laid."""
    with pytest.raises(QuasilineError, match="float range"):
        circle_points(204, 0)
    first = []
    for k in range(3, 601):
        points, scale = _circle_polygon(k)
        homogeneous = circle_points_by_doubling(k)
        assert len(points) == len(set(points)) == k
        assert all(
            x * w == hx * scale and y * w == hy * scale
            for (x, y), (hx, hy, w) in zip(points, homogeneous)
        )
        assert strictly_convex_homogeneous(homogeneous)
        if len(set(circle_parameters(k, 64))) == k:
            assert (points, scale) == numerators(circle_points(k, 0))
            first.append(k)
    assert first[:199] == list(range(3, 202)) and len(first) == 204


def test_drawing_json_roundtrip():
    d = realized(triangle())
    drawing = straighten(d)
    data = drawing_to_json_dict(drawing)
    assert drawing_from_json_dict(data) == drawing
    # rationals serialized as p/q strings
    flat = [x for pair in data["positions"] for x in pair]
    assert all(isinstance(x, str) for x in flat)
    assert any("/" in x for x in flat)


def test_straighten_deterministic():
    d = realized(triangle())
    assert straighten(d) == straighten(d)
