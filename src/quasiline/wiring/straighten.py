"""Bend-free straight-line drawings of digon-free diagrams.

The crossing graph of a digon-free monotone arrangement (crossings as
vertices, finite wire arcs as edges) is simple and 2-connected, so it
admits an embedding-preserving straight-line drawing whose outer cycle
sits on a convex polygon.  Each wire then closes up through infinity
along the straight line spanned by its first and last crossing, taken
outside the polygon.  Every breakpoint of every wire is a crossing, so
the drawing has no bends.

The crossing graph is never built as a map of its own: its faces are
read from the diagram's one arrangement map (:func:`full_wire_map`).
The bounded cells are its internal faces, its outer walk is traced on
the same rotations with the chord darts skipped, and it is certified
2-connected by every one of these face walks being a simple cycle.

Coordinates are exact, and integers until the drawing is built: the
outer polygon vertices are rational points on the unit circle, scaled
to integers over the lcm L of their denominators, and interior vertices
solve the barycentric (Tutte) system by fraction-free integer (Bareiss)
elimination, as integers over its determinant det.  The system is a
pinned graph Laplacian: sparse, symmetric and positive definite.  So it
is eliminated on the diagonal in minimum-degree order, touching only
nonzero entries and with no pivot search; det and det·X are fixed by
Cramer's rule, so the order changes no output.  Every point is then
an integer pair over the one positive denominator D = det·L, and only
the final :class:`StraightDrawing` divides by D.  The drawing is
audited on the integer pairs with exact predicates: distinctness, an
O(E) embedding check (strictly convex outer polygon, one strict
orientation for every face-star triangle) and rotation orders, each
in one cyclic pass of angle comparisons.
Dividing every point by the same positive D changes no sign and no
equality, so each verdict is that of the rational drawing.  The audit
never passes a degenerate drawing; on failure the polygon parameters are
re-chosen.  The chord lines need no geometry: on a strictly convex
polygon they behave as required exactly when the chords' ends alternate
round the outer walk (:func:`_chords_alternate`), which is checked once,
before any polygon is chosen.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Sequence

from ..errors import HasDigons, NotTwoConnected, QuasilineError, ValidationError
from ..rotmaps import Dart, RotationMap
from ..sequences import _as_int
from .diagram import GeneralizedWiringDiagram
from .euclid import _as_fraction
from .faces import ArcId, full_wire_map

Point = tuple[Fraction, Fraction]
Coords = tuple[int, int]  # integer numerators over a drawing's denominator D


@dataclass(frozen=True)
class StraightDrawing:
    """Exact straight-line drawing of a diagram.

    ``positions`` gives one point per event; ``outer_cycle`` lists the
    convex-polygon events counterclockwise; ``chords`` holds, per wire,
    the pair (first event, last event) spanning its line through
    infinity; ``wire_paths`` lists each wire's events left to right.
    """

    n: int
    positions: tuple[Point, ...]
    outer_cycle: tuple[int, ...]
    chords: tuple[tuple[int, int], ...]
    wire_paths: tuple[tuple[int, ...], ...]


# -- exact geometric predicates ----------------------------------------------
#
# They use only ring operations and signs, so they answer alike on the
# integer numerators of a drawing and on its Fraction points.


def _sub(p: Coords, q: Coords) -> Coords:
    return (p[0] - q[0], p[1] - q[1])


def _cross(p: Coords, q: Coords) -> int:
    return p[0] * q[1] - p[1] * q[0]


def _orient(a: Coords, b: Coords, c: Coords) -> int:
    v = _cross(_sub(b, a), _sub(c, a))
    return (v > 0) - (v < 0)


def _direction_cmp(u: Coords, v: Coords) -> int:
    """Counterclockwise comparison of direction vectors starting at the
    positive x-axis; ties mean equal directions."""

    def half(w: Coords) -> int:
        if w[1] > 0 or (w[1] == 0 and w[0] > 0):
            return 0
        return 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = _cross(u, v)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def _winds_once(directions: Sequence[Coords]) -> bool:
    """The (at least two, nonzero) directions are distinct and in
    counterclockwise cyclic order: no two consecutive ones are equal, and
    exactly one step, the wrap past the positive x-axis, goes back."""
    steps = [_direction_cmp(directions[i - 1], directions[i]) for i in range(len(directions))]
    return 0 not in steps and steps.count(1) == 1


def _strictly_convex(polygon: Sequence[Coords]) -> bool:
    """The closed polygon turns strictly left at every vertex and its edge
    directions wind around exactly once: it is simple, strictly convex
    and counterclockwise."""
    k = len(polygon)
    edges = [_sub(polygon[(i + 1) % k], polygon[i]) for i in range(k)]
    if any(_cross(edges[i - 1], edges[i]) <= 0 for i in range(k)):
        return False
    return _winds_once(edges)


# -- crossing graph -----------------------------------------------------------


def _crossing_graph_faces(
    diagram: GeneralizedWiringDiagram, full: RotationMap, arcs: Sequence[ArcId]
) -> tuple[list[list[int]], list[int]]:
    """The internal face cycles and the outer walk of the crossing graph G
    (events as vertices, finite arcs as edges), read from the arrangement
    map ``full`` and its arc table ``arcs``.

    The faces of ``full`` with no chord edge are the bounded cells, that
    is G's internal faces.  The outer walk is G's face walk on ``full``'s
    rotations with the chord darts skipped, from the far end of the first
    arc of the last wire at event 0: event 0, the leftmost vertex, has
    only out-darts finite, and the walk turns there from the last to the
    first across the outer region.  Walks run along sense 1 and begin at
    their least state.  G is connected, since every two wires cross, and
    a connected plane graph on 3 or more vertices is 2-connected exactly
    when every face walk is a simple cycle (Mohar-Thomassen); otherwise
    ``NotTwoConnected`` is raised.
    """
    edges, signature = full.edges, full.signature
    pairs = [tuple(sorted(uv)) for uv, s in zip(edges, signature) if s == 1]
    if len(set(pairs)) != len(pairs) or any(u == v for u, v in pairs):
        raise NotTwoConnected("crossing graph is not simple")
    if len(full.vertices) < 3:
        raise NotTwoConnected("crossing graph has fewer than 3 vertices")
    internal = [
        [edges[x >> 2][x >> 1 & 1] for x in orbit]
        for orbit in full.face_orbits
        if orbit[0] & 1 and all(signature[x >> 2] == 1 for x in orbit)
    ]
    after: dict[Dart, Dart] = {}
    for rot in full.rotations.values():
        kept = [d for d in rot if signature[d[0]] == 1]
        after.update(zip(kept, kept[1:] + kept[:1]))
    start = (arcs.index((diagram.window_wires(0)[-1], 0)), 1)
    walk = [start]
    while (dart := after[full.rev(walk[-1])]) != start:
        walk.append(dart)
    least = walk.index(min(walk))
    outer = [edges[e][end] for e, end in walk[least:] + walk[:least]]
    for cycle in internal + [outer]:
        if len(set(cycle)) != len(cycle):
            raise NotTwoConnected(f"crossing graph face walk {cycle} repeats a vertex")
    return internal, outer


# -- outer polygon ------------------------------------------------------------


def _circle_points(k: int, attempt: int) -> list[Point]:
    """k distinct rational points on the unit circle in counterclockwise
    order (tangent half-angle parametrization): t = p/q gives the point
    ((q² - p²) / (q² + p²), 2pq / (q² + p²)).  Raises QuasilineError once
    q outgrows the float range before the ps are distinct."""
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


def _numerators(points: Sequence[Point]) -> tuple[list[Coords], int]:
    """The points as integer pairs over the lcm of their denominators,
    and that lcm."""
    scale = math.lcm(*(c.denominator for point in points for c in point))
    return [
        (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
        for x, y in points
    ], scale


# -- Tutte system -------------------------------------------------------------


def _tutte_graph(full: RotationMap, internal_faces: list[list[int]]) -> dict:
    """Adjacency lists of G, the positive edges of ``full``, with one more
    vertex ("star", s) per internal face s, joined to every vertex of the
    face."""
    adjacency: dict = {v: [] for v in full.vertices}
    for (u, v), s in zip(full.edges, full.signature):
        if s == 1:
            adjacency[u].append(v)
            adjacency[v].append(u)
    for s, cycle in enumerate(internal_faces):
        star = ("star", s)
        adjacency[star] = []
        for v in cycle:
            adjacency[star].append(v)
            adjacency[v].append(star)
    return adjacency


def _solve_exact(
    rows: list[dict[int, int]], rhs: list[list[int]]
) -> tuple[list[list[int]], int]:
    """Solve ``A · X = rhs`` exactly over the integers, for A symmetric
    positive definite and given by its sparse ``rows`` (column to entry);
    rhs holds one column per coordinate.  Returns (nums, det) with
    det = det A > 0 and X = nums / det.

    Fraction-free (Bareiss) elimination on the diagonal in minimum-degree
    order: each step pivots on the remaining row with the fewest entries,
    ties broken by index.  A row keeps only its nonzero entries in the
    columns not yet eliminated.  Every entry is a minor of the augmented
    system, so the pivots are leading principal minors of A in this order,
    all positive exactly when A is positive definite; the first that is
    not raises QuasilineError.  A row that a pivot column does not touch
    is left alone: the skipped Bareiss steps only multiply it by
    p_k / p_(k-1), which telescopes, so when the row is next updated or
    becomes the pivot it divides by the pivot p_t of its own last update
    (1 before any), exactly.  The last pivot is det, and back-substitution
    over the pivot rows in reverse yields the integers det·X; by Cramer's
    rule both are the same in every order.
    """
    for i, row in enumerate(rows):
        if any(rows[j].get(i) != x for j, x in row.items()):
            raise QuasilineError("barycentric system is not symmetric")
    rows = [dict(row) for row in rows]
    rhs = [list(b) for b in rhs]
    last = [1] * len(rows)  # the pivot of each row's last update
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots = []
    prev = 1
    while heap:
        size, k = heapq.heappop(heap)
        if last[k] == 0 or size != len(rows[k]):
            continue  # eliminated, or the row has changed since
        row, t = rows[k], last[k]
        p = row.pop(k, 0) * prev // t
        if p <= 0:
            raise QuasilineError(
                "singular barycentric system" if p == 0
                else "barycentric system is not positive definite"
            )
        if t != prev:
            row = {j: x * prev // t for j, x in row.items()}
            rhs[k] = [x * prev // t for x in rhs[k]]
        for j, y in row.items():
            other, s = rows[j], last[j]
            f = other.pop(k)
            merged = {i: p * x for i, x in other.items()}
            for i, x in row.items():
                merged[i] = merged.get(i, 0) - f * x
            rows[j] = {i: x // s for i, x in merged.items() if x}
            rhs[j] = [(p * x - f * z) // s for x, z in zip(rhs[j], rhs[k])]
            last[j] = p
            heapq.heappush(heap, (len(rows[j]), j))
        last[k] = 0
        pivots.append((k, row, p))
        prev = p
    det = prev
    nums: list[list[int]] = [[]] * len(rows)
    for k, row, p in reversed(pivots):
        nums[k] = [
            (det * c - sum(x * nums[j][col] for j, x in row.items())) // p
            for col, c in enumerate(rhs[k])
        ]
    return nums, det


def _tutte_positions(
    adjacency: dict, boundary: dict[Hashable, Coords], interior: list
) -> tuple[dict[Hashable, Coords], int]:
    """Barycentric positions of the interior vertices with the boundary
    pinned, as integer numerators over a common positive denominator.

    ``boundary`` holds integer numerators over some denominator L.
    Returns (placed, det): every point of ``placed`` is over det·L,
    interior points as the solver's numerators and boundary points
    scaled by det.
    """
    if not interior:
        return dict(boundary), 1
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
    nums, det = _solve_exact(rows, rhs)
    placed = {v: (x * det, y * det) for v, (x, y) in boundary.items()}
    for v, i in index.items():
        placed[v] = (nums[i][0], nums[i][1])
    return placed, det


# -- audit --------------------------------------------------------------------


def _chord_direction(
    positions: Sequence[Coords], first: int, last: int, at_last: bool
) -> Coords:
    d = _sub(positions[last], positions[first])
    return d if at_last else (-d[0], -d[1])


def _embedded(
    positions: Sequence[Coords],
    polygon: Sequence[Coords],
    stars: Sequence[Coords],
    faces: list[list[int]],
) -> bool:
    """Embedding check in O(E) exact orientation tests.

    The star of each internal face triangulates it, so the triangles
    (star, v_i, v_i+1) tile the disk bounded by the outer cycle.  With
    that cycle on a strictly convex polygon and every triangle strictly
    oriented the same way, each point of the polygon is covered exactly
    once (Gortler-Gotsman-Thurston), so the finite arcs are drawn
    pairwise disjoint except at shared crossings.
    """
    if not _strictly_convex(polygon):
        return False
    signs = {
        _orient(star, positions[u], positions[v])
        for star, cycle in zip(stars, faces)
        for u, v in zip(cycle, cycle[1:] + cycle[:1])
    }
    return signs == {1} or signs == {-1}


def _chords_alternate(
    outer_walk: Sequence[int], chords: Sequence[tuple[int, int]]
) -> bool:
    """Two chords share at most one end, and two chords with four distinct
    ends alternate in the cyclic order of ``outer_walk``.

    On a strictly convex polygon with distinct vertices in walk order,
    this holds exactly when every two chord lines cross, either at a
    shared end or strictly inside the polygon.  A line through two of the
    polygon's vertices meets it only in their chord, so two such lines
    meet inside exactly when the chords cross, that is, when their ends
    alternate.  Chords sharing one end meet there, since no three
    vertices are collinear; chords sharing both ends span the same line.
    """
    place = {v: i for i, v in enumerate(outer_walk)}
    ends = [sorted((place[f], place[l])) for f, l in chords]
    for (a, b), (c, d) in itertools.combinations(ends, 2):
        shared = len({a, b} & {c, d})
        if shared == 2 or (shared == 0 and (a < c < b) == (a < d < b)):
            return False
    return True


def _audit(
    full: RotationMap,
    arcs: Sequence[ArcId],
    positions: list[Coords],
    stars: list[Coords],
    faces: list[list[int]],
    outer_cycle: list[int],
    chords: list[tuple[int, int]],
) -> bool:
    if len(set(positions)) != len(positions):
        return False
    polygon = [positions[v] for v in outer_cycle]
    if not _embedded(positions, polygon, stars, faces):
        return False

    # Rotation audit: at every crossing the drawn counterclockwise order
    # of darts (chord rays included) must equal the stored rotation.
    for v in full.vertices:
        rotation = full.rotations[v]
        directions = []
        for dart in rotation:
            e, end = dart
            if full.signature[e] == 1:
                other = full.edges[e][1 - end]
                directions.append(_sub(positions[other], positions[v]))
            else:
                first, last = chords[arcs[e][0] - 1]
                directions.append(
                    _chord_direction(positions, first, last, at_last=end == 0)
                )
        if not _winds_once(directions):
            return False
    return True


# -- main entry ---------------------------------------------------------------

_MAX_ATTEMPTS = 6
_AUDIT_FAILED = "straightening audit failed for all polygon parameters"


def straighten(diagram: GeneralizedWiringDiagram) -> StraightDrawing:
    """Embedding-preserving straight-line drawing with zero bends.

    Requires a digon-free diagram (``HasDigons`` otherwise).  The finite
    crossing graph's faces are read from the arrangement map, and the
    graph is verified simple and 2-connected by its simple face walks
    (``NotTwoConnected`` signals an internal invariant violation).
    """
    full, arcs = full_wire_map(diagram)
    digons = sum(len(face) == 2 for face in full.faces)
    if digons:
        raise HasDigons(
            f"{digons} digon(s) found; straightening needs a digon-free diagram"
        )
    wire_paths = tuple(diagram.wire_events(w) for w in range(1, diagram.n + 1))
    for w, path in enumerate(wire_paths, start=1):
        if len(path) < 2:
            raise NotTwoConnected(
                f"wire {w} has a single crossing; impossible without digons"
            )
    chords = [(path[0], path[-1]) for path in wire_paths]

    internal_faces, outer_walk = _crossing_graph_faces(diagram, full, arcs)
    on_outer = set(outer_walk)
    for w, (first, last) in enumerate(chords, start=1):
        if first not in on_outer or last not in on_outer:
            raise QuasilineError(
                f"wire {w} does not reach the outer boundary; identification failed"
            )
    if not _chords_alternate(outer_walk, chords):
        raise QuasilineError(_AUDIT_FAILED)

    adjacency = _tutte_graph(full, internal_faces)
    # The outer walk goes counterclockwise round the polygon: it is laid on
    # the circle points mirrored in the x-axis, taken in reverse order.  A
    # mirror image reverses the rotation at every crossing, so only this
    # orientation can pass the rotation audit.
    interior = [v for v in adjacency if v not in on_outer]
    for attempt in range(_MAX_ATTEMPTS):
        polygon, scale = _numerators(_circle_points(len(outer_walk), attempt))
        boundary = {v: (x, -y) for v, (x, y) in zip(reversed(outer_walk), polygon)}
        placed, det = _tutte_positions(adjacency, boundary, interior)
        positions = [placed[v] for v in range(diagram.event_count)]
        stars = [placed[("star", s)] for s in range(len(internal_faces))]
        if _audit(full, arcs, positions, stars, internal_faces, outer_walk, chords):
            d = det * scale
            return StraightDrawing(
                diagram.n,
                tuple((Fraction(x, d), Fraction(y, d)) for x, y in positions),
                tuple(outer_walk),
                tuple(chords),
                wire_paths,
            )
    raise QuasilineError(_AUDIT_FAILED)


# -- serialization ------------------------------------------------------------


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def drawing_to_json_dict(drawing: StraightDrawing) -> dict:
    return {
        "n": drawing.n,
        "positions": [
            [_fraction_str(x), _fraction_str(y)] for x, y in drawing.positions
        ],
        "outer_cycle": list(drawing.outer_cycle),
        "chords": [list(c) for c in drawing.chords],
        "wire_paths": [list(p) for p in drawing.wire_paths],
    }


def drawing_from_json_dict(data: dict) -> StraightDrawing:
    """The drawing of :func:`drawing_to_json_dict`.  Coordinates are read by
    :func:`quasiline.wiring.euclid._as_fraction` (strings or integers, at
    most ``MAX_DIGITS`` digits) and indices by
    :func:`quasiline.sequences._as_int`; malformed input, and a chord or wire count
    other than ``n`` or an event index past the positions, raise
    ValidationError."""
    try:
        drawing = StraightDrawing(
            _as_int(data["n"]),
            tuple((_as_fraction(x), _as_fraction(y)) for x, y in data["positions"]),
            tuple(map(_as_int, data["outer_cycle"])),
            tuple((_as_int(a), _as_int(b)) for a, b in data["chords"]),
            tuple(tuple(map(_as_int, p)) for p in data["wire_paths"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed drawing JSON: {exc}") from exc
    events = itertools.chain(drawing.outer_cycle, *drawing.chords, *drawing.wire_paths)
    if not drawing.n == len(drawing.chords) == len(drawing.wire_paths) or not all(
        0 <= v < len(drawing.positions) for v in events
    ):
        raise ValidationError("drawing JSON: wires or event indices do not fit the positions")
    return drawing
