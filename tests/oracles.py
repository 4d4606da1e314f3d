"""Shared test oracles and corpus builders.

Everything here is deliberately independent of the implementation paths
it checks: girth by plain BFS on a label dict built from the flags,
lineality by intersecting the line sets of every pair of points, sweep
validity by explicit cut simulation, sweep orders by Kahn's algorithm,
scheme isomorphism by brute-force search over relabellings and regaugings, rotation systems by
list scans along every wire, arrangement faces by orbits of the whole
rotation map, the crossing graph's faces on a second rotation map and
its 2-connectivity by Hopcroft-Tarjan, straight drawings by a pairwise
segment audit and by rotations read from the whole arrangement map,
rotation orders by a sort by angle, circle polygons as ``Fraction``
points scaled to integer numerators, Tutte systems on a hashable
adjacency dict through a vertex-to-row index map, chord lines by
intersecting every pair and testing the point against the polygon,
linear systems by Gauss-Jordan elimination over ``Fraction`` and by
dense Bareiss elimination with a pivot search, move sites by scanning
every later event or index triple and by per-band event lists, digon
partners by the sets of window wires on a partner table rebuilt per
call, inserted digons' tracks by replaying the prefix, swap equivalence by breadth-first
search over elementary swaps, pair counts by testing every pair of every
window, monotone markings of abstract arrangements by trying every
boundary gap, canonical encodings by encoding from every dart to the
end, connectivity, orientability and straight-ahead walks of rotation
maps by walks over tuple darts, encoding start candidates by keying
every candidate in full, realization plans by measuring every insertion slot with a pairwise
Kendall tau, Levi adjacency by testing every point-line pair against
the flags, Euclidean sweeps by a general projective chart matrix and
its inverse over ``Fraction``, shear candidates by a ``Fraction`` dict, and random
generators driven by seeded ``random.Random`` instances.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, lcm
from typing import Hashable, Optional

from quasiline import (
    IncidenceStructure,
    Move,
    PermSequence,
    Realization,
    RealizationPlan,
    build,
    default_plan,
    elementary_swap,
    make_sequence,
    realize,
)
from quasiline.errors import (
    DuplicateLine,
    IndexOutOfRange,
    NoSuchFace,
    NotAdmissible,
    QuasilineError,
    ValidationError,
    WireWithoutPoint,
)
from quasiline.rotmaps import RotationMap
from quasiline.surface import EmbeddingScheme, StraightAheadWalk
from quasiline.wiring import (
    GeneralizedWiringDiagram,
    apply_triangle_move,
    diagram_from_lines,
    diagram_from_realization,
    insert_digon,
    removable_digons,
    remove_digon,
    triangle_moves,
)
from quasiline.jsonshape import as_fraction, read
from quasiline.wiring.euclid import (
    _chart_candidates,
    _cross,
    _shear_candidates,
)
from quasiline.wiring.mutations import _check_triangle
from quasiline.wiring.straighten import (
    _embedded,
    _solve_exact,
    _sub,
    _winds_once,
)


# -- named configurations -----------------------------------------------------

FANO_LINES = ["123", "145", "167", "246", "257", "347", "356"]

MOBIUS_KANTOR_LINES = [(i, (i + 1) % 8, (i + 3) % 8) for i in range(8)]

# The unique (10_3) configuration with no geometric realization, found by
# the one-shot oracle in scripts/find_anti_desargues.py (enumeration of
# all ten configurations plus exact symbolic realizability search).
ANTI_DESARGUES_LINES = [
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 7, 8),
    (2, 4, 7),
    (2, 6, 8),
    (3, 7, 9),
    (4, 6, 9),
    (5, 8, 9),
]

PAPPUS_EUCLIDEAN_LINES = [
    (0, 1, 0),
    (1, -1, -1),
    (21, -29, -9),
    (3, -2, 0),
    (1, 1, 1),
    (3, -2, 3),
    (3, 1, 9),
    (6, -5, 0),
    (1, 3, 3),
]

PAPPUS_POINTS = [
    (0, 0),
    (1, 0),
    (3, 0),
    (0, 1),
    (2, 3),
    (5, 6),
    (Fraction(7, 3), 2),
    (Fraction(15, 23), Fraction(18, 23)),
    (Fraction(2, 5), Fraction(3, 5)),
]

PAPPUS_LABELS = ["A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3"]

# Sixteen lines whose crossings no chart (p, q, 1) with |p|, |q| <= 7
# misses: the x-axis crosses the line of slope s through (-1/k, 0) on
# every chart with p = k, for k = ±1..±7, and the line y = 1 at infinity,
# on every chart with p = 0.  The first chart that misses every crossing
# is (-8, -8, 1), the 226th candidate.
WIDE_CHART_LINES = [(0, 1, 0), (0, 1, 1)] + [
    (s, -1, -Fraction(s, k)) for s, k in zip(range(2, 16), [*range(-7, 0), *range(1, 8)])
]


def triple_structure(lines, prefix="L"):
    labels = [f"{prefix}{i}" for i in range(1, len(lines) + 1)]
    points = sorted({p for l in lines for p in l}, key=str)
    flags = [(p, lab) for l, lab in zip(lines, labels) for p in l]
    return build(points, labels, flags)


def fano():
    return triple_structure([tuple(l) for l in FANO_LINES])


def mobius_kantor():
    return triple_structure(MOBIUS_KANTOR_LINES, prefix="K")


def anti_desargues():
    assert ANTI_DESARGUES_LINES, "oracle result not frozen yet"
    return triple_structure(ANTI_DESARGUES_LINES, prefix="D")


def pappus():
    """Pappus's (9_3) configuration, read off the exact Euclidean data."""
    lines = [
        tuple(p for p, (x, y) in zip(PAPPUS_LABELS, PAPPUS_POINTS) if a * x + b * y == c)
        for a, b, c in PAPPUS_EUCLIDEAN_LINES
    ]
    return triple_structure(lines, prefix="P")


def cyclic(n):
    """The cyclic (n_3) configuration: lines {i, i+1, i+3} mod n."""
    return triple_structure([(i, (i + 1) % n, (i + 3) % n) for i in range(n)], prefix="C")


def triangle():
    return build(
        "abc",
        ["ab", "bc", "ca"],
        [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc"), ("c", "ca"), ("a", "ca")],
    )


def two_lines_three_points():
    return build(
        ["p1", "p2", "p3"],
        ["A", "B"],
        [(p, l) for p in ("p1", "p2", "p3") for l in ("A", "B")],
    )


# -- graph oracles ------------------------------------------------------------


def bfs_girth(structure: IncidenceStructure) -> int:
    """Length of a shortest cycle of the Levi graph by BFS from every
    vertex, on a label dict built from the flags; large when acyclic."""
    adjacency = {v: [] for v in structure.points + structure.lines}
    for p, l in structure.flags:
        adjacency[p].append(l)
        adjacency[l].append(p)
    best = 10**9
    for source in adjacency:
        dist = {source: 0}
        parent = {source: None}
        queue = [source]
        while queue:
            v = queue.pop(0)
            for u in adjacency[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    queue.append(u)
                elif parent[v] != u:
                    best = min(best, dist[v] + dist[u] + 1)
        # even-girth bipartite graphs: the estimate above is exact over all sources
    return best


def levi_adjacency_by_pairs(structure: IncidenceStructure) -> dict:
    """Neighbour tuples of every point and line label, in declaration
    order, found by testing every (point, line) pair against the flags."""
    table = {v: [] for v in structure.points + structure.lines}
    for p in structure.points:
        for l in structure.lines:
            if (p, l) in structure.flags:
                table[p].append(l)
                table[l].append(p)
    return {v: tuple(ns) for v, ns in table.items()}


def is_lineal_by_pairs(structure: IncidenceStructure) -> bool:
    """No two points share two lines, by intersecting the line sets of
    every pair of points."""
    for p, q in itertools.combinations(structure.points, 2):
        if len(set(structure.lines_of(p)) & set(structure.lines_of(q))) >= 2:
            return False
    return True


def isomorphism_by_backtracking(c1: IncidenceStructure, c2: IncidenceStructure):
    """An incidence-preserving bijection from ``c1`` onto ``c2`` or None,
    by recursive search over same-side, same-degree images, each checked
    against every vertex mapped before it, on label sets built from the
    flags."""
    if (len(c1.points), len(c1.lines), len(c1.flags)) != (
        len(c2.points),
        len(c2.lines),
        len(c2.flags),
    ):
        return None

    def adjacency(c):
        table = {v: set() for v in c.points + c.lines}
        for p, l in c.flags:
            table[p].add(l)
            table[l].add(p)
        return table

    verts1 = c1.points + c1.lines
    adj1, adj2 = adjacency(c1), adjacency(c2)
    mapping = {}

    def extend(i):
        if i == len(verts1):
            return True
        v = verts1[i]
        for w in c2.points if i < len(c1.points) else c2.lines:
            if w in mapping.values() or len(adj2[w]) != len(adj1[v]):
                continue
            if all((u in adj1[v]) == (x in adj2[w]) for u, x in mapping.items()):
                mapping[v] = w
                if extend(i + 1):
                    return True
                del mapping[v]
        return False

    return dict(mapping) if extend(0) else None


def sweep_cut_ok(diagram: GeneralizedWiringDiagram, order) -> bool:
    """Explicit cut simulation: each swept crossing must be the next
    unswept event on every wire through it."""
    pointer = {w: 0 for w in range(1, diagram.n + 1)}
    for v in order:
        for w in diagram.window_wires_table[v]:
            events = diagram.wire_events(w)
            if pointer[w] >= len(events) or events[pointer[w]] != v:
                return False
            pointer[w] += 1
    return all(
        pointer[w] == len(diagram.wire_events(w)) for w in range(1, diagram.n + 1)
    )


def kahn_order(vertex_count: int, arcs) -> list[int] | None:
    """Kahn's algorithm with smallest-vertex tie-breaking on the vertices
    0..vertex_count-1; None when the arcs contain a directed cycle."""
    indeg = [0] * vertex_count
    successors: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in arcs:
        indeg[v] += 1
        successors[u].append(v)
    ready = [v for v in range(vertex_count) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in successors[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(ready, u)
    return order if len(order) == vertex_count else None


# -- straightening oracles ----------------------------------------------------


def solve_fraction_system(matrix, rhs):
    """Gauss-Jordan elimination over the rationals; rhs holds one column
    per coordinate.  Raises ValueError on a singular matrix."""
    m = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(x) for x in r] for row, r in zip(matrix, rhs)]
    cols = len(a[0])
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[m:cols] for row in a]


def solve_by_dense_bareiss(
    matrix: list[list[int]], rhs: list[list[int]]
) -> tuple[list[list[int]], int]:
    """Solve ``matrix · X = rhs`` exactly over the integers; rhs holds one
    column per coordinate.  Returns (nums, det) with det > 0 and
    X = nums / det.

    The system is eliminated fraction-free (Bareiss) on the dense matrix
    with a row pivot search, so any nonsingular matrix is solved: every
    entry stays an integer minor of the augmented system, so each
    division by the previous pivot is exact.  The last pivot is the
    determinant det, and back-substitution yields the integers det·X.
    The signs are then normalised so that det is positive.  Raises
    QuasilineError on a singular matrix.
    """
    m = len(matrix)
    a = [row + r for row, r in zip(matrix, rhs)]
    prev = 1
    for k in range(m):
        pivot = next((r for r in range(k, m) if a[r][k] != 0), None)
        if pivot is None:
            raise QuasilineError("singular barycentric system")
        a[k], a[pivot] = a[pivot], a[k]
        p, tail = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            f = row[k]
            if f:
                row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
            else:
                row[k + 1:] = [p * x // prev for x in row[k + 1:]]
        prev = p
    det = prev
    nums = [[0] * len(rhs[0]) for _ in range(m)]
    for i in reversed(range(m)):
        row = a[i]
        for c in range(len(rhs[0])):
            total = det * row[m + c] - sum(row[j] * nums[j][c] for j in range(i + 1, m))
            nums[i][c] = total // row[i]
    if det < 0:
        det = -det
        nums = [[-x for x in r] for r in nums]
    return nums, det


def solve_by_fraction_bareiss(matrix, rhs):
    """Fraction-free (Bareiss) elimination of ``matrix · X = rhs`` with
    rational rhs columns, each solution built as a Fraction over det·den
    (the determinant times the common denominator of the rhs).  Raises
    QuasilineError on a singular matrix."""
    m = len(matrix)
    den = lcm(*(x.denominator for row in rhs for x in row))
    a = [
        row[:] + [x.numerator * (den // x.denominator) for x in r]
        for row, r in zip(matrix, rhs)
    ]
    prev = 1
    for k in range(m):
        pivot = next((r for r in range(k, m) if a[r][k] != 0), None)
        if pivot is None:
            raise QuasilineError("singular barycentric system")
        a[k], a[pivot] = a[pivot], a[k]
        p, tail = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    det = prev
    nums = [[0] * len(rhs[0]) for _ in range(m)]
    for i in reversed(range(m)):
        row = a[i]
        for c in range(len(rhs[0])):
            total = det * row[m + c] - sum(row[j] * nums[j][c] for j in range(i + 1, m))
            nums[i][c] = total // row[i]
    return [[Fraction(x, det * den) for x in r] for r in nums]


def tutte_positions_by_fractions(adjacency, boundary, interior) -> dict:
    """Barycentric positions with the ``boundary`` vertices pinned at
    their Fraction points: each interior vertex at the mean of its
    neighbours, solved by :func:`solve_by_fraction_bareiss`."""
    if not interior:
        return dict(boundary)
    index = {v: i for i, v in enumerate(interior)}
    m = len(interior)
    matrix = [[0] * m for _ in range(m)]
    rhs = [[Fraction(0), Fraction(0)] for _ in range(m)]
    for v in interior:
        i = index[v]
        matrix[i][i] = len(adjacency[v])
        for u in adjacency[v]:
            if u in index:
                matrix[i][index[u]] -= 1
            else:
                rhs[i][0] += boundary[u][0]
                rhs[i][1] += boundary[u][1]
    solution = solve_by_fraction_bareiss(matrix, rhs)
    out = dict(boundary)
    for v, i in index.items():
        out[v] = (solution[i][0], solution[i][1])
    return out


def circle_points(k: int, attempt: int) -> list[tuple[Fraction, Fraction]]:
    """The circle polygon of ``straighten`` as ``Fraction`` points, from
    the given attempt on: t = p/q gives the point
    ((q² - p²) / (q² + p²), 2pq / (q² + p²)), each p rounded from
    tan(angle / 2)·q, and a collision retries at attempt + 7."""
    while True:
        q = 64 << attempt
        offset = math.pi / (7 * k) * attempt
        try:
            ps = [
                round(math.tan((-math.pi + (2 * i + 1) * math.pi / k + offset) / 2) * q)
                for i in range(k)
            ]
        except OverflowError as exc:
            raise QuasilineError(f"no {k} distinct circle points in float range") from exc
        if len(set(ps)) == k and sorted(ps) == ps:
            return [
                (Fraction(q * q - p * p, q * q + p * p), Fraction(2 * p * q, q * q + p * p))
                for p in ps
            ]
        attempt += 7


def circle_parameters(k: int, q: int) -> list[int]:
    """The tangent parameters of ``straighten``'s circle polygon over q:
    p_i = round(tan(θ_i / 2)·q) at the k half-angles θ_i / 2 in
    (-π/2, π/2)."""
    return [round(math.tan((-math.pi + (2 * i + 1) * math.pi / k) / 2) * q) for i in range(k)]


def circle_points_by_doubling(k: int) -> list[tuple[int, int, int]]:
    """The circle polygon of ``straighten`` as homogeneous integer points
    (q² - p², 2pq, q² + p²), with q doubled from 64 until the k
    parameters of :func:`circle_parameters` are distinct."""
    q = 64
    while len(set(ps := circle_parameters(k, q))) < k:
        q *= 2
    return [(q * q - p * p, 2 * p * q, q * q + p * p) for p in ps]


def strictly_convex_homogeneous(points) -> bool:
    """``_strictly_convex`` on homogeneous points (x, y, w) with w > 0:
    the edge from (x1, y1, w1) to (x2, y2, w2), (x2·w1 - x1·w2,
    y2·w1 - y1·w2), is a positive multiple of the edge between the
    affine points, and both tests read only signs of edges and of their
    cross products."""
    edges = [
        (x2 * w1 - x1 * w2, y2 * w1 - y1 * w2)
        for (x1, y1, w1), (x2, y2, w2) in zip(points, points[1:] + points[:1])
    ]
    turns = (ux * vy - uy * vx for (ux, uy), (vx, vy) in zip(edges[-1:] + edges[:-1], edges))
    return all(turn > 0 for turn in turns) and _winds_once(edges)


def numerators(points) -> tuple[list[tuple[int, int]], int]:
    """``Fraction`` points as integer pairs over the lcm of their
    denominators, and that lcm."""
    scale = lcm(*(c.denominator for point in points for c in point))
    return [
        (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
        for x, y in points
    ], scale


def tutte_graph(event_count: int, paths, internal_faces) -> dict:
    """Adjacency lists of the crossing graph, the finite arcs of the wire
    ``paths`` in order, with one more vertex ("star", s) per internal
    face s, joined to every vertex of the face."""
    adjacency: dict = {v: [] for v in range(event_count)}
    for path in paths:
        for u, v in zip(path, path[1:]):
            adjacency[u].append(v)
            adjacency[v].append(u)
    for s, cycle in enumerate(internal_faces):
        adjacency[("star", s)] = list(cycle)
        for v in cycle:
            adjacency[v].append(("star", s))
    return adjacency


def tutte_system(adjacency: dict, boundary: dict, interior: list):
    """The pinned Laplacian of ``adjacency`` as one dict row per vertex of
    ``interior``, through a vertex-to-row index map, and its rhs: per
    row, the sums of the integer points of its ``boundary`` neighbours."""
    index = {v: i for i, v in enumerate(interior)}
    rows = [{i: len(adjacency[v])} for i, v in enumerate(interior)]
    rhs = [[0, 0] for _ in interior]
    for v, i in index.items():
        for u in adjacency[v]:
            if u in index:
                rows[i][index[u]] = rows[i].get(index[u], 0) - 1
            else:
                rhs[i][0] += boundary[u][0]
                rhs[i][1] += boundary[u][1]
    return rows, rhs


def tutte_positions(adjacency: dict, boundary: dict, interior: list):
    """Integer barycentric positions over det·L for ``boundary`` points
    over L: :func:`tutte_system` solved by the library's sparse solver,
    the boundary scaled by det.  Returns (placed, det)."""
    rows, rhs = tutte_system(adjacency, boundary, interior)
    nums, det = _solve_exact(rows, rhs, 1)
    placed = {v: (x * det, y * det) for v, (x, y) in boundary.items()}
    for v, (x, y) in zip(interior, nums):
        placed[v] = (x, y)
    return placed, det


def schur_complement(rows: list, rhs: list, eliminated: list):
    """The system of dict ``rows`` and ``rhs`` (as in :func:`tutte_system`)
    with the rows and columns ``eliminated`` removed by Gaussian
    elimination in Fractions, one after the other.  Returns the Schur
    complement on the other rows, in their order and renumbered from 0,
    its rhs, and the determinant of the eliminated block, the product of
    its pivots."""
    a = [{j: Fraction(x) for j, x in row.items()} for row in rows]
    b = [[Fraction(x) for x in r] for r in rhs]
    gone = set()
    det = Fraction(1)
    for k in eliminated:
        p = a[k].pop(k)
        det *= p
        gone.add(k)
        for i, row in enumerate(a):
            f = row.pop(k, 0) if i not in gone else 0
            if f:
                for j, x in a[k].items():
                    row[j] = row.get(j, 0) - f * x / p
                b[i] = [y - f * z / p for y, z in zip(b[i], b[k])]
    kept = [i for i in range(len(rows)) if i not in gone]
    index = {i: n for n, i in enumerate(kept)}
    complement = [{index[j]: x for j, x in a[i].items() if x} for i in kept]
    return complement, [b[i] for i in kept], det


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(a, b, p) -> bool:
    """p lies on the closed segment [a, b] (collinearity included)."""
    if _orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_share_point(a, b, c, d) -> bool:
    # a common point lies in both bounding boxes
    for i in (0, 1):
        if max(a[i], b[i]) < min(c[i], d[i]) or max(c[i], d[i]) < min(a[i], b[i]):
            return False
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    return (
        _on_segment(a, b, c)
        or _on_segment(a, b, d)
        or _on_segment(c, d, a)
        or _on_segment(c, d, b)
    )


def chord_lines_meet_inside(positions, outer_cycle, chords) -> bool:
    """Pairwise geometric chord audit, O(n^2 k) exact predicates: no two
    chord lines are parallel, and two lines meet either at the one
    crossing their chords share or strictly inside the polygon that
    ``outer_cycle`` spans counterclockwise."""
    polygon = [positions[v] for v in outer_cycle]
    k = len(polygon)
    for (f1, l1), (f2, l2) in itertools.combinations(chords, 2):
        a1, b1, a2, b2 = (positions[v] for v in (f1, l1, f2, l2))
        d1 = (b1[0] - a1[0], b1[1] - a1[1])
        d2 = (b2[0] - a2[0], b2[1] - a2[1])
        denom = d1[0] * d2[1] - d1[1] * d2[0]
        if denom == 0:
            return False
        s = Fraction((a2[0] - a1[0]) * d2[1] - (a2[1] - a1[1]) * d2[0]) / denom
        z = (a1[0] + s * d1[0], a1[1] + s * d1[1])
        shared = {f1, l1} & {f2, l2}
        if shared:
            if len(shared) != 1 or z != positions[next(iter(shared))]:
                return False
        elif not all(_orient(polygon[i], polygon[(i + 1) % k], z) > 0 for i in range(k)):
            return False
    return True


def _half_plane(w) -> int:
    """0 for the upper half-plane and the positive x-axis, 1 for the rest."""
    return 0 if w[1] > 0 or (w[1] == 0 and w[0] > 0) else 1


def direction_cmp(u, v) -> int:
    """Counterclockwise comparison of nonzero direction vectors starting at
    the positive x-axis; ties mean equal directions."""
    hu, hv = _half_plane(u), _half_plane(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = u[0] * v[1] - u[1] * v[0]
    return 0 if c == 0 else (-1 if c > 0 else 1)


def rotation_order_by_sort(directions) -> bool:
    """The rotation audit by a pairwise test for equal directions and a
    sort by angle: the directions are distinct and their angular order
    is a cyclic shift of the list order."""
    for d1, d2 in itertools.combinations(directions, 2):
        if direction_cmp(d1, d2) == 0:
            return False
    order = sorted(
        range(len(directions)),
        key=cmp_to_key(lambda i, j: direction_cmp(directions[i], directions[j])),
    )
    k = len(order)
    shift = order.index(0)
    return [order[(shift + i) % k] for i in range(k)] == list(range(k))


def over_common_denominator(points) -> list[tuple[int, int]]:
    """Rational points as integer pairs over the lcm of their
    denominators.  The scaling is positive, so every orientation sign and
    every coordinate comparison is that of the rational points."""
    scale = lcm(*(Fraction(c).denominator for point in points for c in point))
    return [tuple(int(Fraction(c) * scale) for c in point) for point in points]


def arcs_pairwise_disjoint(diagram: GeneralizedWiringDiagram, positions) -> bool:
    """Pairwise segment audit of a straight drawing, O(E^2): the finite arcs
    of the diagram, drawn as segments between their crossings, meet only
    at a shared crossing."""
    positions = over_common_denominator(positions)
    full = arrangement_map_by_scan(diagram)
    finite = [uv for e, uv in enumerate(full.edges) if full.signature[e] == 1]
    for (u1, v1), (u2, v2) in itertools.combinations(finite, 2):
        shared = {u1, v1} & {u2, v2}
        a, b = positions[u1], positions[v1]
        c, d = positions[u2], positions[v2]
        if not shared:
            if _segments_share_point(a, b, c, d):
                return False
        else:
            p = positions[next(iter(shared))]
            for q in (a, b):
                if q != p and _on_segment(c, d, q):
                    return False
            for q in (c, d):
                if q != p and _on_segment(a, b, q):
                    return False
    return True


# -- the crossing graph as a second rotation map ------------------------------


def crossing_graph_by_second_map(diagram: GeneralizedWiringDiagram, full, tags):
    """The crossing graph G built as a rotation map of its own from the
    arrangement map ``full`` and its wire ``tags`` (closing darts
    dropped, finite edges renumbered), and its faces traced on that map.
    Returns (gmap, internal face cycles, outer cycle, Tutte adjacency of
    G): every face is walked along its sense-1 orbit from its least
    state, the outer one is the orbit of the dart at the far end of the
    first arc of the last wire in event 0's window, and the adjacency
    lists follow G's edges, then join one vertex ("star", s) to every
    vertex of internal face s."""
    finite_ids = [e for e, s in enumerate(full.signature) if s == 1]
    renumber = {e: i for i, e in enumerate(finite_ids)}
    edges = tuple(full.edges[e] for e in finite_ids)
    rotations = tuple(
        tuple(2 * renumber[x >> 1] + (x & 1) for x in rot if x >> 1 in renumber)
        for rot in full.rotations
    )
    gmap = RotationMap(full.vertices, edges, rotations, (1,) * len(edges))
    gid = renumber[tags.index(diagram.window_wires_table[0][-1])]
    orbits = face_orbits_by_tuples(gmap)
    outer = next(o for o in orbits if ((gid, 1), 1) in o)
    internal = [
        [edges[e][end] for (e, end), _ in orbit]
        for orbit in orbits
        if orbit[0][1] == 1 and orbit != outer
    ]
    adjacency = {v: [] for v in range(len(gmap.vertices))}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for s, cycle in enumerate(internal):
        adjacency[("star", s)] = list(cycle)
        for v in cycle:
            adjacency[v].append(("star", s))
    return gmap, internal, [edges[e][end] for (e, end), _ in outer], adjacency


def audit_by_arrangement_map(
    full, tags, positions, stars, faces, outer_cycle, chords
) -> bool:
    """The straightening audit with every rotation read from the
    arrangement map ``full`` and its wire ``tags``: distinct points,
    the embedding check, and at every crossing the drawn directions of
    its darts, a closing dart along its wire's chord, in the map's
    rotation order."""
    if len(set(positions)) != len(positions):
        return False
    polygon = [positions[v] for v in outer_cycle]
    if not _embedded(positions, polygon, stars, faces):
        return False
    for v, rot in enumerate(full.rotations):
        directions = []
        for e, end in ((x >> 1, x & 1) for x in rot):
            if full.signature[e] == 1:
                other = full.edges[e][1 - end]
                directions.append(_sub(positions[other], positions[v]))
            else:
                first, last = chords[tags[e] - 1]
                d = _sub(positions[last], positions[first])
                directions.append(d if end == 0 else (-d[0], -d[1]))
        if not _winds_once(directions):
            return False
    return True


def two_connected_by_articulation(gmap: RotationMap) -> bool:
    """Hopcroft-Tarjan: the graph of ``gmap`` is simple, has at least 3
    vertices, is connected and has no cut vertex."""
    pairs = [tuple(sorted(e)) for e in gmap.edges]
    if len(set(pairs)) != len(pairs) or any(u == v for u, v in gmap.edges):
        return False
    n = len(gmap.vertices)
    if n < 3:
        return False
    adjacency = [[] for _ in range(n)]
    for u, v in gmap.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    disc = [0] * n
    low = [0] * n
    visited = [False] * n
    parent = [-1] * n
    timer = 1
    root = 0
    stack = [(root, iter(adjacency[root]))]
    visited[root] = True
    disc[root] = low[root] = timer
    root_children = 0
    while stack:
        v, it = stack[-1]
        advanced = False
        for u in it:
            if not visited[u]:
                visited[u] = True
                timer += 1
                disc[u] = low[u] = timer
                parent[u] = v
                if v == root:
                    root_children += 1
                stack.append((u, iter(adjacency[u])))
                advanced = True
                break
            elif u != parent[v]:
                low[v] = min(low[v], disc[u])
        if not advanced:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if parent[v] == p and p != root and low[v] >= disc[p]:
                    return False
    return all(visited) and root_children <= 1


# -- rotation systems in tuple form, and by list scans -------------------------


@dataclass(frozen=True)
class TupleMap:
    """A rotation map in the form the reference oracles walk and small
    maps are written in: edges join vertex ids, and the rotation of each
    vertex id lists tuple darts (edge, end), end 0 at the edge's first
    endpoint.  :meth:`of` reads a library map in this form and
    :meth:`rotmap` builds the library map of one, with vertex indices
    and int darts 2·edge + end; each undoes the other."""

    vertices: tuple
    edges: tuple
    rotations: dict
    signature: tuple

    @classmethod
    def of(cls, rm: RotationMap) -> "TupleMap":
        ids = rm.vertices
        return cls(
            ids,
            tuple((ids[u], ids[v]) for u, v in rm.edges),
            {v: tuple((x >> 1, x & 1) for x in rot) for v, rot in zip(ids, rm.rotations)},
            rm.signature,
        )

    def rotmap(self) -> RotationMap:
        index = {v: i for i, v in enumerate(self.vertices)}
        return RotationMap(
            tuple(self.vertices),
            tuple((index[u], index[v]) for u, v in self.edges),
            tuple(tuple(2 * e + end for e, end in self.rotations[v]) for v in self.vertices),
            tuple(self.signature),
        )

    def scheme(self, lines=None) -> EmbeddingScheme:
        """The embedding scheme of this map, its edges untagged unless
        ``lines`` tags them."""
        return EmbeddingScheme(self.rotmap(), tuple([None] * len(self.edges) if lines is None else lines))

    @staticmethod
    def rev(dart):
        return (dart[0], 1 - dart[1])

    def attach(self, dart):
        return self.edges[dart[0]][dart[1]]

    def degree(self, vertex) -> int:
        return len(self.rotations[vertex])

    def darts(self):
        for e in range(len(self.edges)):
            yield (e, 0)
            yield (e, 1)


def arrangement_map_by_scan(diagram: GeneralizedWiringDiagram) -> RotationMap:
    """The diagram's cell complex as a signed rotation map, every event a
    vertex and every arc an edge; the library never builds it.  Edge
    (w, j) joins the j-th and (j+1)-th events of wire w, the wrap
    edge is signed -1, and each rotation lists out-darts then in-darts of
    the window wires top to bottom, every dart found by a list scan."""
    edge_ids = {}
    edges = []
    signature = []
    for w in range(1, diagram.n + 1):
        evs = diagram.wire_events(w)
        k = len(evs)
        for j in range(k):
            edge_ids[(w, j)] = len(edges)
            edges.append((evs[j], evs[(j + 1) % k]))
            signature.append(-1 if j == k - 1 else 1)

    def out_dart(wire, event):
        j = diagram.wire_events(wire).index(event)
        return (edge_ids[(wire, j)], 0)

    def in_dart(wire, event):
        evs = diagram.wire_events(wire)
        j = evs.index(event)
        return (edge_ids[(wire, (j - 1) % len(evs))], 1)

    rotations = {}
    for i in range(diagram.event_count):
        wires = diagram.window_wires_table[i]
        rotations[i] = tuple(out_dart(w, i) for w in wires) + tuple(
            in_dart(w, i) for w in wires
        )
    return TupleMap(tuple(range(diagram.event_count)), edges, rotations, signature).rotmap()


def faces_by_orbits(diagram: GeneralizedWiringDiagram) -> tuple[tuple[int, ...], ...]:
    """The faces of ``trace_faces_disk`` by walking the face orbits of the
    whole arrangement map: every face is the cycle of events its orbit
    leaves, in orbit order.  Traversal state x leaves end x >> 1 & 1 of
    edge x >> 2."""
    rm = arrangement_map_by_scan(diagram)
    return tuple(tuple(rm.edges[x >> 2][x >> 1 & 1] for x in orbit) for orbit in rm.faces)


def scheme_by_scan(diagram: GeneralizedWiringDiagram) -> EmbeddingScheme:
    """The surface map of the designated points, built separately from the
    library's builder in the same way as :func:`arrangement_map_by_scan`,
    with non-designated crossings skipped along every wire."""
    designated = diagram.designated_events()
    designated_set = set(designated)
    label = {i: diagram.moves[i].point for i in designated}
    vertices = tuple(label[i] for i in designated)

    wire_points = {}
    for w in range(1, diagram.n + 1):
        pts = [i for i in diagram.wire_events(w) if i in designated_set]
        if not pts:
            raise WireWithoutPoint(f"wire {w} carries no designated point")
        wire_points[w] = pts

    edges = []
    signature = []
    lines = []
    edge_id = {}
    for w in range(1, diagram.n + 1):
        pts = wire_points[w]
        m = len(pts)
        for j in range(m):
            edge_id[(w, j)] = len(edges)
            edges.append((label[pts[j]], label[pts[(j + 1) % m]]))
            signature.append(-1 if j == m - 1 else 1)
            lines.append(w)

    def out_dart(w, event):
        j = wire_points[w].index(event)
        return (edge_id[(w, j)], 0)

    def in_dart(w, event):
        pts = wire_points[w]
        j = pts.index(event)
        return (edge_id[(w, (j - 1) % len(pts))], 1)

    rotations = {}
    for i in designated:
        wires = diagram.window_wires_table[i]
        rotations[label[i]] = tuple(out_dart(w, i) for w in wires) + tuple(
            in_dart(w, i) for w in wires
        )
    return TupleMap(vertices, edges, rotations, signature).scheme(lines)


# -- move sites and encodings by exhaustive search ---------------------------


def removable_digons_by_scan(diagram: GeneralizedWiringDiagram):
    """Removable digon pairs, each partner found by scanning every later
    event for one that meets either wire of the left crossing."""
    sites = []
    for i, ev in enumerate(diagram.moves):
        if ev.length != 2 or ev.point is not None:
            continue
        pair = set(diagram.window_wires_table[i])
        for j in range(i + 1, diagram.event_count):
            touched = set(diagram.window_wires_table[j])
            if touched & pair:
                other = diagram.moves[j]
                if touched == pair and other.length == 2 and other.point is None:
                    sites.append((i, j))
                break
    return sites


def triangle_moves_by_triples(diagram: GeneralizedWiringDiagram):
    """Triangle-move sites: every index triple i < j < k that passes the
    library's own site check."""
    sites = []
    for triple in itertools.combinations(range(diagram.event_count), 3):
        try:
            _check_triangle(diagram, triple)
        except (NoSuchFace, NotAdmissible):
            continue
        sites.append(triple)
    return sites


def next_on_wires_by_pairs(diagram: GeneralizedWiringDiagram) -> list[int]:
    """Per event, the first later event on any of its wires, or the event
    count when there is none, from the consecutive pairs of every wire's
    event list, rebuilt on every call."""
    m = diagram.event_count
    nxt = [m] * m
    for events in map(diagram.wire_events, range(1, diagram.n + 1)):
        for i, j in zip(events, events[1:]):
            if j < nxt[i]:
                nxt[i] = j
    return nxt


def remove_digon_by_sets(diagram: GeneralizedWiringDiagram, at: int) -> GeneralizedWiringDiagram:
    """``remove_digon`` with the partner tested by the sets of its and the
    left crossing's window wires, then by its length, each check raising
    the library's error."""
    if not 0 <= at < diagram.event_count:
        raise NoSuchFace(f"no event at index {at}")
    ev = diagram.moves[at]
    if ev.length != 2:
        raise NoSuchFace(f"event {at} is a singular crossing, not a digon side")
    if ev.point is not None:
        raise NotAdmissible(f"event {at} is designated ({ev.point!r})")
    partner = next_on_wires_by_pairs(diagram)[at]
    if partner == diagram.event_count or set(diagram.window_wires_table[partner]) != set(
        diagram.window_wires_table[at]
    ):
        raise NoSuchFace(f"event {at} does not bound an empty digon")
    other = diagram.moves[partner]
    if other.length != 2:
        raise NoSuchFace(f"event {at} does not bound an empty digon")
    if other.point is not None:
        raise NotAdmissible(f"event {partner} is designated ({other.point!r})")
    moves = tuple(m for k, m in enumerate(diagram.moves) if k not in (at, partner))
    return GeneralizedWiringDiagram(diagram.n, moves)


def insert_digon_by_replay(
    diagram: GeneralizedWiringDiagram, pair: tuple[int, int], at: int
) -> GeneralizedWiringDiagram:
    """``insert_digon`` with the two wires' tracks read off the permutation
    before the slot, replayed from the identity."""
    a, b = pair
    if not 0 <= at <= diagram.event_count:
        raise NoSuchFace(f"slot {at} not in [0, {diagram.event_count}]")
    if a == b or not (1 <= a <= diagram.n and 1 <= b <= diagram.n):
        raise NoSuchFace(f"{pair} is not a pair of distinct wires")
    perm = permutation_after_by_replay(diagram, at)
    pa, pb = perm.index(a), perm.index(b)
    if abs(pa - pb) != 1:
        raise NoSuchFace(
            f"wires {a} and {b} are not adjacent at slot {at} "
            f"(tracks {pa + 1} and {pb + 1})"
        )
    start = min(pa, pb) + 1
    moves = list(diagram.moves)
    moves[at:at] = [Move(start, 2), Move(start, 2)]
    return GeneralizedWiringDiagram(diagram.n, tuple(moves))


def triangle_moves_by_bands(diagram: GeneralizedWiringDiagram) -> list[tuple[int, int, int]]:
    """Triangle-move sites from band lists: per three-track band
    b = 1..n-2, the events meeting tracks b..b+2 in order; a site is three
    consecutive entries of one band list, all regular and non-designated,
    where i and k start at one track t of {b, b+1} and j at the other."""
    bands: list[list[int]] = [[] for _ in range(diagram.n - 1)]
    free = []  # the start of every regular non-designated event, 0 for the others
    for idx, ev in enumerate(diagram.moves):
        for b in range(max(1, ev.start - 2), min(diagram.n - 2, ev.stop) + 1):
            bands[b].append(idx)
        free.append(ev.start if ev.length == 2 and ev.point is None else 0)
    sites = []
    for b, band in enumerate(bands):
        for i, j, k in zip(band, band[1:], band[2:]):
            t = free[i]
            if free[k] == t and free[j] == 2 * b + 1 - t and t in (b, b + 1):
                sites.append((i, j, k))
    return sorted(sites)


def check_triangle_by_ranges(
    diagram: GeneralizedWiringDiagram, triple: tuple[int, int, int]
) -> tuple[int, int]:
    """``_check_triangle`` testing interference position by position
    against a ``range`` of the band's tracks."""
    i, j, k = sorted(triple)
    if len({i, j, k}) != 3 or not 0 <= i or k >= diagram.event_count:
        raise NoSuchFace(f"{triple} is not a triple of distinct event indices")
    e1, e2, e3 = diagram.moves[i], diagram.moves[j], diagram.moves[k]
    for idx, ev in ((i, e1), (j, e2), (k, e3)):
        if ev.length != 2:
            raise NoSuchFace(f"event {idx} is singular; triangle moves need regular crossings")
    t, u = e1.start, e2.start
    if e3.start != t or abs(u - t) != 1:
        raise NoSuchFace(f"events {triple} are not in braid position")
    band = range(min(t, u), min(t, u) + 3)
    for m in range(i + 1, k):
        if m == j:
            continue
        ev = diagram.moves[m]
        if any(pos in band for pos in range(ev.start, ev.stop + 1)):
            raise NoSuchFace(
                f"event {m} interferes with the triangle across tracks "
                f"{band.start}..{band.stop - 1}"
            )
    for idx, ev in ((i, e1), (j, e2), (k, e3)):
        if ev.point is not None:
            raise NotAdmissible(f"crossing {idx} is designated ({ev.point!r})")
    return t, u


def _encode_from(rm: TupleMap, position, start, reflect: int) -> tuple[int, ...]:
    """The full encoding from ``start`` in sense ``reflect``; ``position``
    gives each dart's index in its vertex's rotation."""
    gauge = {}
    dart_number = {}
    order = []
    degrees = []

    def discover(vertex, entry, g):
        gauge[vertex] = g
        rot = rm.rotations[vertex]
        i = position[entry]
        deg = len(rot)
        degrees.append(deg)
        for k in range(deg):
            d = rot[(i + g * k) % deg]
            dart_number[d] = len(order)
            order.append(d)

    discover(rm.attach(start), start, reflect)
    cursor = 0
    while cursor < len(order):
        d = order[cursor]
        cursor += 1
        r = rm.rev(d)
        u = rm.attach(r)
        if u not in gauge:
            discover(u, r, gauge[rm.attach(d)] * rm.signature[d[0]])
    if len(order) != 2 * len(rm.edges):
        raise ValidationError("canonical encoding requires a connected map")
    out = list(degrees)
    for d in order:
        r = rm.rev(d)
        eff = gauge[rm.attach(d)] * rm.signature[d[0]] * gauge[rm.attach(r)]
        out.append(dart_number[r] * 2 + (0 if eff == 1 else 1))
    return tuple(out)


def face_orbits_by_tuples(rm: RotationMap):
    """Face orbits traced on ((edge, end), sense) tuples, each step found
    by a scan of the far vertex's rotation, starting from every dart and
    both senses in order."""
    rm = TupleMap.of(rm)

    def step(state):
        (e, end), s = state
        s2 = s * rm.signature[e]
        r = (e, 1 - end)
        rot = rm.rotations[rm.attach(r)]
        return (rot[(rot.index(r) + s2) % len(rot)], s2)

    seen = set()
    orbits = []
    for start in ((d, s) for d in rm.darts() for s in (-1, 1)):
        if start in seen:
            continue
        orbit = [start]
        state = step(start)
        while state != start:
            orbit.append(state)
            state = step(state)
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def faces_by_tuples(rm: RotationMap):
    """One tuple traversal per face: of the two orbits of each face, the
    one that is lexicographically smaller."""
    orbits = face_orbits_by_tuples(rm)
    index_of = {state: i for i, orbit in enumerate(orbits) for state in orbit}
    kept = []
    seen = set()
    for i, orbit in enumerate(orbits):
        if i not in seen:
            (e, end), s = orbit[0]
            j = index_of[((e, 1 - end), -s * rm.signature[e])]
            seen.update((i, j))
            kept.append(min(orbit, orbits[j]))
    return kept


def encodings_by_start(rm: RotationMap) -> dict[tuple[int, int], tuple[int, ...]]:
    """The full encoding from every start dart (e, end), keyed by the
    dart's int 2e + end and the sense."""
    rm = TupleMap.of(rm)
    position = {d: i for rot in rm.rotations.values() for i, d in enumerate(rot)}
    return {
        (2 * e + end, r): _encode_from(rm, position, (e, end), r)
        for e, end in rm.darts()
        for r in (1, -1)
    }


def canonical_encoding_by_full_search(rm: RotationMap) -> tuple[int, ...]:
    """The least full encoding over every starting dart and both global
    reflections, each encoding built to the end."""
    return min(encodings_by_start(rm).values())


def is_connected_by_tuples(rm: RotationMap) -> bool:
    """Connectivity by a search that follows tuple darts to their far
    vertices."""
    rm = TupleMap.of(rm)
    if not rm.vertices:
        return True
    seen = {rm.vertices[0]}
    stack = [rm.vertices[0]]
    while stack:
        v = stack.pop()
        for d in rm.rotations[v]:
            u = rm.attach(rm.rev(d))
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(rm.vertices)


def is_orientable_by_tuples(rm: RotationMap) -> bool:
    """Sign-normalize each component along a spanning tree of tuple darts
    from its first vertex, then look for a signature-reversing edge."""
    rm = TupleMap.of(rm)
    sign: dict[Hashable, int] = {}
    for root in rm.vertices:
        if root in sign:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for d in rm.rotations[v]:
                u = rm.attach(rm.rev(d))
                if u not in sign:
                    sign[u] = sign[v] * rm.signature[d[0]]
                    stack.append(u)
    return all(sign[u] * s * sign[v] == 1 for (u, v), s in zip(rm.edges, rm.signature))


def start_codes_by_one_phase(rots, regular, far, sign, place):
    """Per (start dart, sense) candidate of ``RotationMap._starts`` (same
    arguments), in the same order, (its code at index q + 1, dart,
    sense), each keyed in full from the rings of every rotation; None on
    a map that is not pruned."""
    q = min(map(len, rots), default=0)
    if not regular or q < 2:
        return None
    slots = [{far[d]: k for k, d in enumerate(rot)} for rot in rots]
    if any(len(slot) < q for slot in slots):
        return None
    rings = (None, [rot * 2 for rot in rots], [rot[::-1] * 2 for rot in rots])
    new = 2 * q * (q + 1)
    keyed = []
    for rot, slot in zip(rots, slots):
        for k, d in enumerate(rot):
            u = far[d]
            for r in (1, -1):
                s = r * sign[d]
                d1 = rings[s][u][place[s][d] + 1]
                p = slot.get(far[d1])
                if p is None:
                    c = new
                else:
                    g = r * sign[rot[p]]
                    c = 2 * (q * (1 + r * (p - k) % q) + (place[g][d1] - place[g][rot[p]]) % q)
                    c += s * sign[d1] != g
                keyed.append((c, d, r))
    return keyed


def starts_by_one_phase(rots, regular, far, sign, place):
    """The candidates of ``RotationMap._starts``, with every candidate
    keyed in full when the map is pruned."""
    keyed = start_codes_by_one_phase(rots, regular, far, sign, place)
    if keyed is None:
        q = min(map(len, rots), default=0)
        return [(d, r) for rot in rots if len(rot) == q for d in rot for r in (1, -1)]
    least = min(keyed)[0]
    return [(d, r) for c, d, r in keyed if c == least]


def random_signed_map(rng: random.Random, vertices: int, edges: int) -> RotationMap:
    """A map of a random multigraph, loops allowed and not necessarily
    connected, with random rotations and signs."""
    ends = tuple((rng.randrange(vertices), rng.randrange(vertices)) for _ in range(edges))
    rotations: dict = {v: [] for v in range(vertices)}
    for e, pair in enumerate(ends):
        for end, v in enumerate(pair):
            rotations[v].append((e, end))
    for rot in rotations.values():
        rng.shuffle(rot)
    signature = tuple(rng.choice((1, -1)) for _ in ends)
    order = list(range(vertices))
    rng.shuffle(order)
    return TupleMap(tuple(order), ends, rotations, signature).rotmap()


def random_map_on_graph(rng: random.Random, edges) -> RotationMap:
    """A map of the simple graph with edge list ``edges``: random edge
    ends, vertex order, rotations and signs."""
    edges = tuple(tuple(rng.sample(ends, 2)) for ends in edges)
    rotations: dict = {}
    for e, ends in enumerate(edges):
        for end, v in enumerate(ends):
            rotations.setdefault(v, []).append((e, end))
    vertices = list(rotations)
    rng.shuffle(vertices)
    for rot in rotations.values():
        rng.shuffle(rot)
    signature = tuple(rng.choice((1, -1)) for _ in edges)
    return TupleMap(tuple(vertices), edges, rotations, signature).rotmap()


def torus_grid(rows: int, cols: int, doubled=()) -> TupleMap:
    """The rows x cols grid on the torus (rows, cols >= 3), every edge
    positive, with each horizontal edge of the rows in ``doubled`` doubled
    into a digon.  Vertex (i, j) turns counterclockwise through its edges
    right (lower first), up, left (upper first) and down."""
    vertices = [(i, j) for i in range(rows) for j in range(cols)]
    edges: list = []
    right, up = {}, {}
    for i, j in vertices:
        right[i, j] = []
        for _ in range(1 + (i in doubled)):
            right[i, j].append(len(edges))
            edges.append(((i, j), (i, (j + 1) % cols)))
        up[i, j] = len(edges)
        edges.append(((i, j), ((i + 1) % rows, j)))
    rotations = {
        (i, j): tuple(
            [(e, 0) for e in right[i, j]]
            + [(up[i, j], 0)]
            + [(e, 1) for e in reversed(right[i, (j - 1) % cols])]
            + [(up[(i - 1) % rows, j], 1)]
        )
        for i, j in vertices
    }
    return TupleMap(tuple(vertices), tuple(edges), rotations, (1,) * len(edges))


# -- sequence replay oracle ---------------------------------------------------


def as_diagram(seq: PermSequence) -> GeneralizedWiringDiagram:
    """The wiring diagram whose events are the moves of ``seq``."""
    return GeneralizedWiringDiagram(seq.n, seq.moves)


def permutation_after_by_replay(seq: PermSequence, t: int) -> tuple[int, ...]:
    """The permutation after the first ``t`` moves, replayed from the
    identity on every call."""
    if not 0 <= t <= len(seq.moves):
        raise IndexOutOfRange(f"t={t} not in [0, {len(seq.moves)}]")
    perm = list(range(1, seq.n + 1))
    for move in seq.moves[:t]:
        a, b = move.start - 1, move.stop
        perm[a:b] = perm[a:b][::-1]
    return tuple(perm)


def window_wires_by_replay(seq: PermSequence, i: int) -> tuple[int, ...]:
    """Window content of move ``i`` (0-based) read top to bottom just
    before the reversal, replaying the prefix."""
    if not 0 <= i < len(seq.moves):
        raise IndexOutOfRange(f"event {i} not in [0, {len(seq.moves) - 1}]")
    perm = permutation_after_by_replay(seq, i)
    move = seq.moves[i]
    return tuple(perm[move.start - 1:move.stop])


def _swap_invariant(seq: PermSequence) -> Counter:
    # Multiset of (element set, designated?) pairs; preserved by swaps.
    return Counter(
        (frozenset(window), move.point is not None)
        for window, move in zip(seq.window_wires_table, seq.moves)
    )


def swap_chain_by_bfs(seq1: PermSequence, seq2: PermSequence, budget: int):
    """Breadth-first search for a chain of elementary swaps from seq1 to seq2.

    Returns the list of swap indices when found within ``budget`` node
    expansions; None means "not found within budget", not a disproof.
    Sequences whose swap invariants differ are refuted immediately.
    """
    if seq1.n != seq2.n or len(seq1.moves) != len(seq2.moves):
        return None
    if _swap_invariant(seq1) != _swap_invariant(seq2):
        return None

    def key(s: PermSequence):
        # designation flags, not labels, distinguish the moves
        return tuple((m.start, m.length, m.point is not None) for m in s.moves)

    start, key2 = key(seq1), key(seq2)
    if start == key2:
        return []
    parent: dict[tuple, tuple[tuple, int]] = {start: (start, 0)}
    queue = deque([seq1])
    expansions = 0
    while queue and expansions < budget:
        current = queue.popleft()
        expansions += 1
        for i in range(1, len(current.moves)):
            if not current.moves[i - 1].disjoint_from(current.moves[i]):
                continue
            nxt = elementary_swap(current, i)
            k = key(nxt)
            if k in parent:
                continue
            parent[k] = (key(current), i)
            if k == key2:
                chain: list[int] = []
                while k != start:
                    k, idx = parent[k]
                    chain.append(idx)
                chain.reverse()
                return chain
            queue.append(nxt)
    return None


def pair_counts(seq: PermSequence) -> Counter:
    """Counter mapping each unordered pair {x,y} to its joint move count."""
    counts: Counter = Counter()
    for window in seq.window_wires_table:
        for x, y in itertools.combinations(window, 2):
            counts[frozenset((x, y))] += 1
    return counts


# -- abstract arrangements and monotone markings -----------------------------


@dataclass(frozen=True)
class AbstractArrangement:
    """Boundary endpoint order plus per-line crossing orders.

    This is a quasiline arrangement given combinatorially, without a
    drawing.  The marking code below decides whether it is monotone,
    that is, whether it can be swept like a wiring diagram: a *marking*
    cuts the boundary circle at one of its 2n gaps and orients every line
    away from the end met first after the cut, and the arrangement can be
    swept exactly when some marking is *proper* (every two lines meet
    their shared crossings in the same order).  The diagram of a
    generalized allowable sequence always has one, at gap 0
    (:func:`arrangement_from_diagram`).

    ``boundary`` lists 2n tokens (line, end) in cyclic order around the
    disk; the token at position i and the one at position i+n must be the
    two ends of the same line (antipodal identification).  ``crossings``
    holds, per line (1-based), the vertex ids met walking from end 0 to
    end 1.
    """

    n: int
    boundary: tuple[tuple[int, int], ...]
    crossings: tuple[tuple[Hashable, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("an arrangement needs at least 2 lines")
        if len(self.boundary) != 2 * self.n:
            raise ValidationError("boundary must list exactly 2n endpoint tokens")
        if sorted(self.boundary) != sorted(
            (l, e) for l in range(1, self.n + 1) for e in (0, 1)
        ):
            raise ValidationError("boundary must contain each (line, end) once")
        for i in range(self.n):
            a, b = self.boundary[i], self.boundary[i + self.n]
            if a[0] != b[0] or a[1] == b[1]:
                raise ValidationError(
                    "boundary tokens at antipodal positions must be the two ends "
                    "of one line"
                )
        if len(self.crossings) != self.n:
            raise ValidationError("need one crossing list per line")
        for l, row in enumerate(self.crossings, start=1):
            if len(set(row)) != len(row):
                raise ValidationError(f"line {l} lists a vertex twice")
        for v, lines in self.vertex_lines.items():
            if len(lines) < 2:
                raise ValidationError(f"vertex {v!r} lies on fewer than 2 lines")

    @cached_property
    def vertex_lines(self) -> dict[Hashable, frozenset[int]]:
        table: dict[Hashable, set[int]] = {}
        for l, row in enumerate(self.crossings, start=1):
            for v in row:
                table.setdefault(v, set()).add(l)
        return {v: frozenset(ls) for v, ls in table.items()}


def arrangement_from_diagram(
    diagram: GeneralizedWiringDiagram,
) -> AbstractArrangement:
    """Boundary and crossing orders induced by the disk model of a diagram.

    Left endpoints come first (wires 1..n top to bottom), then the right
    endpoints; the marking gap immediately before wire 1's left endpoint
    is gap 0.
    """
    boundary = tuple((w, 0) for w in range(1, diagram.n + 1)) + tuple(
        (w, 1) for w in range(1, diagram.n + 1)
    )
    crossings = tuple(diagram.wire_events(w) for w in range(1, diagram.n + 1))
    return AbstractArrangement(diagram.n, boundary, crossings)


def _orientations_from_gap(
    arrangement: AbstractArrangement, gap: int
) -> dict[int, bool]:
    """For each line, True when the marking orients it from end 0 to end 1."""
    size = 2 * arrangement.n
    forward: dict[int, bool] = {}
    for k in range(size):
        line, end = arrangement.boundary[(gap + k) % size]
        if line not in forward:
            forward[line] = end == 0
    return forward


def is_proper_marking(arrangement: AbstractArrangement, gap: int) -> bool:
    """True when, oriented from the given boundary gap, every pair of
    lines meets its shared crossings in the same order on both."""
    if not 0 <= gap < 2 * arrangement.n:
        raise ValidationError(f"gap {gap} not in [0, {2 * arrangement.n - 1}]")
    forward = _orientations_from_gap(arrangement, gap)
    oriented = {
        l: (row if forward[l] else row[::-1])
        for l, row in zip(range(1, arrangement.n + 1), arrangement.crossings)
    }
    for l1, l2 in itertools.combinations(range(1, arrangement.n + 1), 2):
        set1, set2 = set(oriented[l1]), set(oriented[l2])
        shared = set1 & set2
        if len(shared) <= 1:
            continue
        order1 = [v for v in oriented[l1] if v in shared]
        order2 = [v for v in oriented[l2] if v in shared]
        if order1 != order2:
            return False
    return True


def find_monotone_marking(arrangement: AbstractArrangement) -> Optional[int]:
    """First boundary gap that yields a proper marking, or None when the
    arrangement has no monotone marking and so cannot be swept."""
    for gap in range(2 * arrangement.n):
        if is_proper_marking(arrangement, gap):
            return gap
    return None


# -- realization oracle -------------------------------------------------------


def kendall_tau(p: list[int], q: list[int]) -> int:
    """Adjacent-transposition distance by testing every pair."""
    pos = {x: i for i, x in enumerate(q)}
    return sum(pos[p[i]] > pos[p[j]] for i, j in itertools.combinations(range(len(p)), 2))


def best_target_by_slots(cur: list[int], content: list[int]) -> tuple[list[int], int]:
    """Permutation with ``content`` consecutive nearest to ``cur``, and its
    distance: every insertion slot is built and measured; the leftmost
    cheapest wins."""
    members = set(content)
    rest = [x for x in cur if x not in members]
    best, best_cost = None, -1
    for t in range(len(rest) + 1):
        target = rest[:t] + content + rest[t:]
        cost = kendall_tau(cur, target)
        if best is None or cost < best_cost:
            best, best_cost = target, cost
    return best, best_cost


def best_slot_by_scan(cur: list[int], content: list[int]) -> tuple[int, int]:
    """Cheapest insertion slot for ``content`` and its cost, as ``(cost,
    slot)``, by one pass over ``cur`` that prices every slot: slot t costs
    ``inv + sum(a_i for i < t) + sum(k - a_i for i >= t)``, and the cost
    changes by ``2*a_i - k`` from slot i to slot i+1.  The leftmost
    cheapest slot wins ties."""
    rank = {x: j for j, x in enumerate(content)}
    k = len(content)
    seen: list[int] = []  # ranks of the content entries passed, sorted
    # slot 0 costs inv + cost; slot t costs that plus step after t rest entries
    inv = cost = step = best_step = slot = t = 0
    for x in cur:
        j = rank.get(x)
        if j is None:
            a = len(seen)
            cost += k - a
            step += 2 * a - k
            t += 1
            if step < best_step:
                best_step, slot = step, t
        else:
            inv += len(seen) - bisect.bisect(seen, j)
            bisect.insort(seen, j)
    return inv + cost + best_step, slot


def default_plan_by_slots(structure: IncidenceStructure) -> RealizationPlan:
    """``default_plan`` with every candidate priced by
    ``best_target_by_slots``."""
    numbering = tuple(structure.lines)
    number = {l: i + 1 for i, l in enumerate(numbering)}
    orders = {
        p: tuple(sorted(structure.lines_of(p), key=lambda l: number[l]))
        for p in structure.points
    }
    remaining = list(structure.points)
    cur = list(range(1, len(numbering) + 1))
    schedule = []
    while remaining:
        costs = [
            (best_target_by_slots(cur, [number[l] for l in orders[p]])[1], i)
            for i, p in enumerate(remaining)
        ]
        point = remaining.pop(min(costs)[1])
        schedule.append(point)
        content = [number[l] for l in orders[point]]
        cur = best_target_by_slots(cur, content)[0]
        start = cur.index(content[0])
        cur[start : start + len(content)] = content[::-1]
    return RealizationPlan(numbering, tuple(schedule), orders)


def _bridge_by_index(cur: list[int], target: list[int]) -> list[Move]:
    moves = []
    for j in range(len(target)):
        q = cur.index(target[j])
        while q > j:
            cur[q - 1], cur[q] = cur[q], cur[q - 1]
            moves.append(Move(q, 2))
            q -= 1
    return moves


def realize_by_slots(structure: IncidenceStructure, plan: RealizationPlan) -> Realization:
    """``realize`` with targets from ``best_target_by_slots`` and bridges
    that look every entry up with ``list.index``; the plan is trusted."""
    n = len(plan.line_numbering)
    cur = list(range(1, n + 1))
    moves = []
    for point in plan.point_order:
        number = {l: i + 1 for i, l in enumerate(plan.line_numbering)}
        content = [number[l] for l in plan.point_line_orders[point]]
        moves.extend(_bridge_by_index(cur, best_target_by_slots(cur, content)[0]))
        start = cur.index(content[0]) + 1
        moves.append(Move(start, len(content), point))
        a, b = start - 1, start - 1 + len(content)
        cur[a:b] = cur[a:b][::-1]
    moves.extend(_bridge_by_index(cur, list(range(n, 0, -1))))
    return Realization(GeneralizedWiringDiagram(n, tuple(moves)), plan.line_numbering)


# -- Euclidean sweep by projective chart matrices --------------------------------


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _det3(m) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _inv3(m) -> list[list[Fraction]]:
    d = _det3(m)
    if d == 0:
        raise ValueError("singular matrix")

    def cyc(r: int, c: int):
        return (
            m[(r + 1) % 3][(c + 1) % 3] * m[(r + 2) % 3][(c + 2) % 3]
            - m[(r + 1) % 3][(c + 2) % 3] * m[(r + 2) % 3][(c + 1) % 3]
        )

    return [[Fraction(cyc(j, i)) / d for j in range(3)] for i in range(3)]


def _primitive(triple) -> tuple[int, int, int]:
    """Scale a nonzero rational triple to the primitive integer vector
    whose first nonzero entry is positive, by one denominator and one
    gcd loop."""
    denom = 1
    for x in triple:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in triple]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-u for u in ints]
            break
    return tuple(ints)


def diagram_from_lines_by_fractions(lines, points=(), point_labels=None):
    """``diagram_from_lines`` by a general projective change of chart:
    a basis completing the chart covector, the inverse matrix by
    cofactors, every line and selected point transformed, and every
    crossing solved by Cramer's rule in ``Fraction``s."""
    covectors = []
    seen: set[tuple[int, int, int]] = set()
    for a, b, c in read(lines, [(as_fraction,) * 3]):
        if a == 0 and b == 0:
            raise ValidationError(f"({a}, {b}, {c}) is not a line")
        prim = _primitive((a, b, -c))
        if prim in seen:
            raise DuplicateLine(f"line ({a}, {b}, {c}) duplicates an earlier one")
        seen.add(prim)
        covectors.append(prim)
    n = len(covectors)
    if n < 2:
        raise ValidationError("an arrangement needs at least 2 lines")

    if point_labels is None:
        point_labels = [f"P{i}" for i in range(1, len(points) + 1)]
    if len(point_labels) != len(points):
        raise ValidationError("need exactly one label per selected point")
    selected = [(x, y, Fraction(1)) for x, y in read(points, [(as_fraction,) * 2])]

    meets = [
        _cross(covectors[i], covectors[j])
        for i, j in itertools.combinations(range(n), 2)
    ]

    chart = next(
        w
        for w in _chart_candidates()
        if all(_dot(w, p) != 0 for p in meets)
        and all(_cross(w, l) != (0, 0, 0) for l in covectors)
    )

    basis = None
    for r1, r2 in itertools.combinations(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2):
        if _det3([r1, r2, chart]) != 0:
            basis = (r1, r2)
            break
    assert basis is not None
    matrix = [list(map(Fraction, basis[0])), list(map(Fraction, basis[1])), list(map(Fraction, chart))]
    minv = _inv3(matrix)

    def transform_line(l):
        # Covectors transform by the inverse matrix: (a, b, -c) @ minv.
        row = [
            l[0] * minv[0][j] + l[1] * minv[1][j] + l[2] * minv[2][j]
            for j in range(3)
        ]
        return (row[0], row[1], -row[2])

    def transform_point(p):
        img = [
            matrix[i][0] * p[0] + matrix[i][1] * p[1] + matrix[i][2] * p[2]
            for i in range(3)
        ]
        if img[2] == 0:
            raise ValidationError("a selected point is not an intersection of the lines")
        return (img[0] / img[2], img[1] / img[2])

    abc = [transform_line(l) for l in covectors]

    crossing_at: dict = {}
    for i, j in itertools.combinations(range(n), 2):
        a1, b1, c1 = abc[i]
        a2, b2, c2 = abc[j]
        det = a1 * b2 - a2 * b1
        assert det != 0, "chart left two lines parallel"
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        crossing_at.setdefault((x, y), set()).update((i, j))

    positions = list(crossing_at)
    for r, s in _shear_candidates():
        shear = Fraction(r, s)
        if any(b - a * shear == 0 for a, b, _ in abc):
            continue
        xs = [x + shear * y for x, y in positions]
        if len(set(xs)) == len(xs):
            break

    def sheared(p):
        return (p[0] + shear * p[1], p[1])

    abc = [(a, b - a * shear, c) for a, b, c in abc]
    crossings = {sheared(p): ls for p, ls in crossing_at.items()}

    label_of: dict = {}
    for label, p in zip(point_labels, selected):
        q = sheared(transform_point(p))
        if q not in crossings:
            raise ValidationError(
                f"selected point {label!r} is not an intersection of the lines"
            )
        if len(crossings[q]) < 2:
            raise ValidationError(f"selected point {label!r} lies on fewer than 2 lines")
        if q in label_of:
            raise ValidationError(f"selected points {label_of[q]!r} and {label!r} coincide")
        label_of[q] = label

    slopes = sorted((-a / b, idx) for idx, (a, b, _) in enumerate(abc))
    wire_of_line = {idx: w for w, (_, idx) in enumerate(slopes, start=1)}

    perm = list(range(1, n + 1))
    moves = []
    for p in sorted(crossings, key=lambda q: q[0]):
        wires = sorted(wire_of_line[idx] for idx in crossings[p])
        tracks = sorted(perm.index(w) for w in wires)
        lo, hi = tracks[0], tracks[-1]
        assert tracks == list(range(lo, hi + 1)), "concurrent wires not adjacent"
        assert perm[lo : hi + 1] == wires, "window content out of order"
        moves.append(Move(lo + 1, hi - lo + 1, label_of.get(p)))
        perm[lo : hi + 1] = perm[lo : hi + 1][::-1]
    assert perm == list(range(n, 0, -1)), "sweep did not end at the reversal"
    return GeneralizedWiringDiagram(n, tuple(moves))


def shear_by_fractions(points, normals) -> tuple[int, int]:
    """The shear search of ``diagram_from_lines`` by a dict of ``Fraction``
    abscissas over all finite points (x, y, z) per candidate, compared by
    the size of its value set."""
    for r, s in _shear_candidates():
        if any(s * b == r * a for a, b in normals):
            continue
        abscissa = {p: Fraction(s * p[0] + r * p[1], s * p[2]) for p in points}
        if len(set(abscissa.values())) == len(abscissa):
            return r, s


# -- randomized generators ----------------------------------------------------


def random_line_arrangement(rng: random.Random, n: int):
    """n distinct integer lines a x + b y = c, not all through one point
    (so n >= 3: two lines always meet in one point)."""
    if n < 3:
        raise ValueError("n distinct lines not all through one point need n >= 3")
    while True:
        lines = []
        seen = set()
        while len(lines) < n:
            a, b, c = (rng.randint(-9, 9) for _ in range(3))
            if a == 0 and b == 0:
                continue
            g = 0
            for x in (a, b, c):
                g = gcd(g, x)
            key = tuple(x // g for x in (a, b, c))
            if key[0] < 0 or (key[0] == 0 and key[1] < 0):
                key = tuple(-x for x in key)
            if key not in seen:
                seen.add(key)
                lines.append((a, b, c))
        if not all(
            _concurrent(lines[0], lines[1], l) for l in lines[2:]
        ):
            return lines


SMALL_RATIONALS = sorted({Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3)})


def meet(l1, l2):
    """The crossing (x, y) of lines a x + b y = c, or None when parallel."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return (Fraction(c1 * b2 - c2 * b1, 1) / det, Fraction(a1 * c2 - a2 * c1, 1) / det)


def finite_crossings(lines) -> list:
    """The distinct crossings (x, y) of pairs of lines, sorted."""
    points = {meet(l1, l2) for l1, l2 in itertools.combinations(lines, 2)}
    return sorted(points - {None})


def small_rational_arrangement(rng: random.Random, n: int):
    """n lines with coefficients in ``SMALL_RATIONALS``, drawn so that
    parallel classes, vertical lines and concurrent triples are common;
    a repeated or degenerate line is possible too."""
    lines = []
    while len(lines) < n:
        kind = rng.random()
        c = rng.choice(SMALL_RATIONALS)
        if kind < 0.25 and lines:
            a, b, _ = rng.choice(lines)
            lines.append((a, b, c))
        elif kind < 0.4:
            lines.append((rng.choice([x for x in SMALL_RATIONALS if x]), 0, c))
        elif kind < 0.6 and len(lines) >= 2:
            point = meet(*rng.sample(lines, 2))
            if point is not None:
                a, b = rng.choice(SMALL_RATIONALS), rng.choice(SMALL_RATIONALS)
                lines.append((a, b, a * point[0] + b * point[1]))
        else:
            lines.append((rng.choice(SMALL_RATIONALS), rng.choice(SMALL_RATIONALS), c))
    return lines


def _concurrent(l1, l2, l3) -> bool:
    """The three lines meet in one projective point."""
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = l1, l2, l3
    det = (
        a1 * (b2 * c3 - b3 * c2)
        - b1 * (a2 * c3 - a3 * c2)
        + c1 * (a2 * b3 - a3 * b2)
    )
    return det == 0


def random_laplacian_system(rng: random.Random, m: int, boundary: int):
    """The Tutte system of a random connected graph on m interior and
    ``boundary`` pinned vertices: the integer Laplacian restricted to the
    interior and, per coordinate, the sum of the neighbouring pinned
    vertices' random rational positions."""
    pinned = [
        (Fraction(rng.randint(-50, 50), rng.randint(1, 40)),
         Fraction(rng.randint(-50, 50), rng.randint(1, 40)))
        for _ in range(boundary)
    ]
    nodes = [("i", i) for i in range(m)] + [("b", j) for j in range(boundary)]
    edges = set()
    order = nodes[:]
    rng.shuffle(order)
    for k in range(1, len(order)):  # random spanning tree: connected
        edges.add(frozenset((order[k], order[rng.randrange(k)])))
    for _ in range(rng.randint(0, 2 * m)):
        u, v = rng.sample(nodes, 2)
        edges.add(frozenset((u, v)))
    matrix = [[0] * m for _ in range(m)]
    rhs = [[Fraction(0), Fraction(0)] for _ in range(m)]
    for edge in edges:
        for (kind, i), (other_kind, j) in itertools.permutations(edge):
            if kind != "i":
                continue
            matrix[i][i] += 1
            if other_kind == "i":
                matrix[i][j] -= 1
            else:
                rhs[i][0] += pinned[j][0]
                rhs[i][1] += pinned[j][1]
    return matrix, rhs




def with_random_digons(rng: random.Random, d: GeneralizedWiringDiagram, count: int):
    """``d`` with ``count`` digons inserted, each at a random slot and track."""
    for _ in range(count):
        at = rng.randint(0, d.event_count)
        t = rng.randint(1, d.n - 1)
        perm = d.permutation_before(at)
        d = insert_digon(d, (perm[t - 1], perm[t]), at)
    return d


def realized(structure: IncidenceStructure) -> GeneralizedWiringDiagram:
    """The diagram of the realization of ``structure`` by its default plan."""
    return diagram_from_realization(realize(structure, default_plan(structure)))


def seeded_arrangement(n: int) -> GeneralizedWiringDiagram:
    """The diagram of the ``random_line_arrangement`` of n lines drawn with seed n."""
    return diagram_from_lines(random_line_arrangement(random.Random(n), n))


def seeded_walk(rng: random.Random, structure: IncidenceStructure, steps: int):
    """The diagram after each step of a seeded walk of admissible moves from
    ``realized(structure)``, holding the event count near its start."""
    d = realized(structure)
    events = d.event_count
    for _ in range(steps):
        digons = list(removable_digons(d))
        triangles = list(triangle_moves(d))
        kinds = ["insert" if d.event_count <= events or not digons else "remove"]
        kinds += ["triangle"] * bool(triangles)
        kind = rng.choice(kinds)
        if kind == "triangle":
            d = apply_triangle_move(d, rng.choice(triangles))
        elif kind == "remove":
            d = remove_digon(d, rng.choice(digons)[0])
        else:
            d = with_random_digons(rng, d, 1)
        yield d


def random_structure(rng: random.Random, max_points=8, max_lines=8) -> IncidenceStructure:
    """A random valid incidence structure; not necessarily lineal."""
    while True:
        np = rng.randint(3, max_points)
        nl = rng.randint(2, max_lines)
        points = [f"p{i}" for i in range(np)]
        lines = [f"l{i}" for i in range(nl)]
        flags = set()
        for l in lines:
            size = rng.randint(2, min(4, np))
            for p in rng.sample(points, size):
                flags.add((p, l))
        degree = {p: 0 for p in points}
        for p, _ in flags:
            degree[p] += 1
        retry = False
        for p in points:
            while degree[p] < 2:
                candidates = [l for l in lines if (p, l) not in flags]
                if not candidates:
                    retry = True
                    break
                flags.add((p, rng.choice(candidates)))
                degree[p] += 1
            if retry:
                break
        if retry:
            continue
        return build(points, lines, flags)


def random_allowable_sequence(rng: random.Random, n: int, singular_prob=0.2) -> PermSequence:
    """Random allowable sequence: repeatedly reverse an ascending window."""
    perm = list(range(1, n + 1))
    moves = []
    target = list(range(n, 0, -1))
    while perm != target:
        candidates = [
            (i + 1, 2) for i in range(n - 1) if perm[i] < perm[i + 1]
        ]
        singular = [
            (i + 1, 3)
            for i in range(n - 2)
            if perm[i] < perm[i + 1] < perm[i + 2]
        ]
        if singular and rng.random() < singular_prob:
            start, length = rng.choice(singular)
        else:
            start, length = rng.choice(candidates)
        moves.append(Move(start, length))
        a, b = start - 1, start - 1 + length
        perm[a:b] = perm[a:b][::-1]
    return PermSequence(n, tuple(moves))


def random_generalized_sequence(
    rng: random.Random, n: int, extra_moves=4, designate=False
) -> PermSequence:
    """Random moves followed by a greedy finish to the reverse permutation."""
    perm = list(range(1, n + 1))
    moves = []
    for _ in range(rng.randint(0, extra_moves)):
        length = rng.randint(2, n)
        start = rng.randint(1, n - length + 1)
        moves.append(Move(start, length))
        a, b = start - 1, start - 1 + length
        perm[a:b] = perm[a:b][::-1]
    target = list(range(n, 0, -1))
    while perm != target:
        candidates = [i + 1 for i in range(n - 1) if perm[i] < perm[i + 1]]
        start = rng.choice(candidates)
        moves.append(Move(start, 2))
        a, b = start - 1, start + 1
        perm[a:b] = perm[a:b][::-1]
    designated = [
        i for i in range(1, len(moves) + 1) if designate and rng.random() < 0.3
    ]
    return make_sequence(n, moves, designated)


def random_long_window_sequence(
    rng: random.Random, n: int, designate=False
) -> PermSequence:
    """A random generalized sequence on n >= 3 wires whose moves include
    windows of length >= 3 at track 1 and ending at track n, with random
    regular moves around them and a greedy finish to the reverse."""
    perm = list(range(1, n + 1))
    moves = []

    def play(move):
        moves.append(move)
        a, b = move.start - 1, move.stop
        perm[a:b] = perm[a:b][::-1]

    for k in range(rng.randint(2, 4)):
        for _ in range(rng.randint(0, 3)):
            play(Move(rng.randint(1, n - 1), 2))
        length = rng.randint(3, n)
        play(Move(1 if k % 2 == 0 else n - length + 1, length))
    target = list(range(n, 0, -1))
    while perm != target:
        play(Move(rng.choice([i + 1 for i in range(n - 1) if perm[i] < perm[i + 1]]), 2))
    designated = [
        i for i in range(1, len(moves) + 1) if designate and rng.random() < 0.3
    ]
    return make_sequence(n, moves, designated)


def random_partial_sequence(rng: random.Random, n: int, r: int) -> PermSequence:
    moves = []
    for _ in range(r):
        length = rng.randint(2, n)
        start = rng.randint(1, n - length + 1)
        moves.append(Move(start, length))
    return PermSequence(n, tuple(moves))


# -- small schemes, enumerated ------------------------------------------------


def interleaved_rotations(darts):
    """All cyclic orders of 4 darts, first dart pinned."""
    first, rest = darts[0], list(darts[1:])
    for perm in itertools.permutations(rest):
        yield (first,) + perm


def degree4_schemes():
    """Every connected degree-4 scheme with at most 3 vertices, one
    representative per signature gauge (spanning-tree edges positive)."""
    catalog = []

    def add(vertices, edges, tree_edges):
        free = [e for e in range(len(edges)) if e not in tree_edges]
        dart_sets = {
            v: tuple(
                (e, end) for e in range(len(edges)) for end in (0, 1)
                if edges[e][end] == v
            )
            for v in vertices
        }
        rotation_choices = [list(interleaved_rotations(dart_sets[v])) for v in vertices]
        for rotations in itertools.product(*rotation_choices):
            rot = dict(zip(vertices, rotations))
            for bits in itertools.product((1, -1), repeat=len(free)):
                signature = [1] * len(edges)
                for e, b in zip(free, bits):
                    signature[e] = b
                try:
                    catalog.append(TupleMap(vertices, edges, rot, signature).scheme())
                except ValidationError:
                    pass

    # V=1: two loops
    add((0,), ((0, 0), (0, 0)), tree_edges=set())
    # V=2: four parallel edges; tree = edge 0
    add((0, 1), tuple(((0, 1),) * 4), tree_edges={0})
    # V=2: doubled edge plus a loop at each vertex
    add((0, 1), ((0, 1), (0, 1), (0, 0), (1, 1)), tree_edges={0})
    # V=3: doubled triangle
    add((0, 1, 2), ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)), tree_edges={0, 2})
    # V=3: tripled edge + path + loop (one labelling; relabelings are
    # isomorphic copies, which the transform check covers)
    add((0, 1, 2), ((0, 1), (0, 1), (0, 1), (0, 2), (1, 2), (2, 2)), tree_edges={0, 3})
    # V=3: doubled path with end loops
    add((0, 1, 2), ((0, 1), (0, 1), (1, 2), (1, 2), (0, 0), (2, 2)), tree_edges={0, 2})
    # V=3: triangle with a loop at every vertex
    add((0, 1, 2), ((0, 1), (1, 2), (0, 2), (0, 0), (1, 1), (2, 2)), tree_edges={0, 1})
    return catalog


def straight_ahead_walks_by_tuples(scheme: EmbeddingScheme) -> tuple[StraightAheadWalk, ...]:
    """``straight_ahead_walks`` over tuple darts, through a dict of the
    opposite dart of every dart."""
    rm = TupleMap.of(scheme.rotmap)
    index = {v: i for i, v in enumerate(rm.vertices)}
    opposite = {d: r[(i + len(r) // 2) % len(r)] for r in rm.rotations.values() for i, d in enumerate(r)}
    seen, walks = set(), []
    for start in rm.darts():
        if start in seen:
            continue
        orbit = [start]
        while opposite[rm.rev(orbit[-1])] != start:
            orbit.append(opposite[rm.rev(orbit[-1])])
        seen.update(orbit, map(rm.rev, orbit))
        edges = tuple(e for e, _ in orbit)
        tags = {scheme.lines[e] for e in edges}
        line = tags.pop() if len(tags) == 1 else None
        negative = sum(rm.signature[e] == -1 for e in edges)
        walks.append(StraightAheadWalk(line, tuple(index[rm.attach(d)] for d in orbit), edges, negative))
    return tuple(walks)


# -- brute-force scheme isomorphism -------------------------------------------


def schemes_isomorphic_bruteforce(s1: EmbeddingScheme, s2: EmbeddingScheme) -> bool:
    """Exhaustive search for a relabelling-plus-regauging isomorphism.

    Extends an assignment vertex by vertex, in breadth-first order: each
    vertex of ``s1`` gets an unused image of the same degree, a gauge and
    a rotation offset, which map its rotation onto the image's.  Every
    edge is checked as soon as both of its ends are assigned: its two
    darts must land on one edge, whose signature is the edge's times the
    gauges of its ends.  Only assignments that a checked edge rules out
    are skipped, so the search is exhaustive.  Exponential; intended for
    tiny schemes only.
    """
    rm1, rm2 = TupleMap.of(s1.rotmap), TupleMap.of(s2.rotmap)
    if len(rm1.vertices) != len(rm2.vertices) or len(rm1.edges) != len(rm2.edges):
        return False
    if sorted(map(rm1.degree, rm1.vertices)) != sorted(map(rm2.degree, rm2.vertices)):
        return False
    order = []
    for root in rm1.vertices:
        queue = [root]
        for v in queue:
            if v not in order:
                order.append(v)
                queue.extend(rm1.attach(rm1.rev(d)) for d in rm1.rotations[v])
    rank = {v: i for i, v in enumerate(order)}
    closing = {v: [] for v in order}  # the edges whose later end is v
    for e, ends in enumerate(rm1.edges):
        closing[max(ends, key=rank.__getitem__)].append(e)
    gauge, dart_map, used = {}, {}, set()

    def edge_holds(e):
        # the dart map is one to one, so darts on one edge are its two ends
        (f, _), (f1, _) = dart_map[(e, 0)], dart_map[(e, 1)]
        a, b = rm1.edges[e]
        return f == f1 and rm2.signature[f] == gauge[a] * gauge[b] * rm1.signature[e]

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        r1 = rm1.rotations[v]
        k = len(r1)
        for w in rm2.vertices:
            if w in used or rm2.degree(w) != k:
                continue
            r2 = rm2.rotations[w]
            used.add(w)
            for g in (1, -1):
                gauge[v] = g
                for off in range(k):
                    for j, d in enumerate(r1):
                        dart_map[d] = r2[(off + g * j) % k]
                    if all(map(edge_holds, closing[v])) and extend(i + 1):
                        return True
            used.discard(w)
        return False

    return extend(0)


def random_scheme_transform(rng: random.Random, s: EmbeddingScheme) -> EmbeddingScheme:
    """A random relabelling + regauging (+ possible reflection) of ``s``."""
    rm = TupleMap.of(s.rotmap)
    vertices = list(rm.vertices)
    shuffled = vertices[:]
    rng.shuffle(shuffled)
    rename = dict(zip(vertices, shuffled))
    gauges = {v: rng.choice((1, -1)) for v in vertices}
    # edge order shuffle with end swaps
    edge_perm = list(range(len(rm.edges)))
    rng.shuffle(edge_perm)
    edge_pos = {e: i for i, e in enumerate(edge_perm)}
    end_swap = [rng.random() < 0.5 for _ in rm.edges]

    def map_dart(d):
        e, end = d
        return (edge_pos[e], end ^ end_swap[e])

    new_edges = [None] * len(rm.edges)
    new_signature = [0] * len(rm.edges)
    new_lines = [None] * len(rm.edges)
    for e, (u, v) in enumerate(rm.edges):
        uu, vv = rename[u], rename[v]
        if end_swap[e]:
            uu, vv = vv, uu
        new_edges[edge_pos[e]] = (uu, vv)
        new_signature[edge_pos[e]] = gauges[u] * gauges[v] * rm.signature[e]
        new_lines[edge_pos[e]] = s.lines[e]
    new_rotations = {}
    for v in vertices:
        rot = rm.rotations[v]
        rot = rot if gauges[v] == 1 else rot[::-1]
        shift = rng.randrange(len(rot))
        rot = rot[shift:] + rot[:shift]
        new_rotations[rename[v]] = tuple(map_dart(d) for d in rot)
    return TupleMap([rename[v] for v in vertices], new_edges, new_rotations, new_signature).scheme(new_lines)
