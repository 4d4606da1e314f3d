"""Bend-free straight-line drawings of digon-free diagrams.

The crossing graph of a digon-free monotone arrangement (crossings as
vertices, finite wire arcs as edges) is simple and 2-connected, so it
admits an embedding-preserving straight-line drawing whose outer cycle
sits on a convex polygon.  Each wire then closes up through infinity
along the straight line spanned by its first and last crossing, taken
outside the polygon.  Every breakpoint of every wire is a crossing, so
the drawing has no bends.

The crossing graph is never built as a map: its internal faces are the
arrangement's bounded cells, read off the bands between the diagram's
tracks by the one band pass of :mod:`quasiline.wiring.faces`, which
also yields the arrangement's digons, so no other face trace is made.
The ends of the bands make up its outer walk (:func:`_crossing_graph`),
and it is certified 2-connected by every one of these face walks being
a simple cycle.

Coordinates are exact, and integers until the drawing is built: the
outer polygon vertices are rational points on the unit circle, laid
from their tangent parameters straight to integer numerators over the
lcm L of their denominators, and interior vertices solve the
barycentric (Tutte) system by fraction-free integer (Bareiss)
elimination, as integers over its determinant det.  The system is a
pinned graph Laplacian on int vertex ids (events, then one star per
internal face): sparse, symmetric and positive definite.  No two stars
are adjacent, so their block is diagonal and is eliminated in closed
form: what is left is the Schur complement on the interior events,
scaled by the product P of the face lengths, which is exactly the
Bareiss state once every star is pivoted.  That is eliminated on the
diagonal in minimum-degree order from the pivot P, touching only
nonzero entries and with no pivot search, and each star is the mean
of its face.  det and det·X are those of the whole system, fixed by
Cramer's rule, so neither the closed form nor the order changes any
output.  Every point is then an integer pair over the one positive
denominator D = det·L.
``Fraction``s appear only in the output: the final
:class:`StraightDrawing` divides by D, and :func:`drawing_from_json_dict`
parses its coordinates back.  The drawing is audited on the integer
pairs with exact predicates: distinctness, an O(E) embedding check
(strictly convex outer polygon, one strict orientation for every
face-star triangle) and rotation orders, each read from its crossing's
window and checked in one cyclic pass of angle comparisons.
Dividing every point by the same positive D changes no sign and no
equality, so each verdict is that of the rational drawing.  The audit
never passes a degenerate drawing, and one polygon is tried: Tutte's
map onto any strictly convex polygon is one-to-one (Tutte 1963; Floater
2003), so no other polygon could change the verdict.  The chord lines
need no geometry: on a strictly convex
polygon they behave as required exactly when the chords' ends alternate
round the outer walk (:func:`_chords_alternate`), which is checked once,
before the polygon is laid.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import HasDigons, NotTwoConnected, QuasilineError, ValidationError
from ..jsonshape import as_fraction, as_int, read
from .diagram import GeneralizedWiringDiagram
from .faces import _band_cells

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


def _winds_once(directions: Sequence[Coords]) -> bool:
    """The (at least two, nonzero) directions are distinct and in
    counterclockwise cyclic order: no two consecutive ones are equal, and
    exactly one step, the wrap past the positive x-axis, goes back.

    A step goes back when it leaves the lower half-plane (the negative
    x-axis included) for the upper one (the positive x-axis included), or
    turns clockwise within one of them.  A step within one half that does
    not turn repeats a direction, since opposite directions lie in
    different halves."""
    backs = 0
    ux, uy = directions[-1]
    lower = uy < 0 or (uy == 0 and ux < 0)
    for vx, vy in directions:
        below = vy < 0 or (vy == 0 and vx < 0)
        if below == lower:
            turn = ux * vy - uy * vx
            if not turn:
                return False
            backs += turn < 0
        else:
            backs += lower
        ux, uy, lower = vx, vy, below
    return backs == 1


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


def _crossing_graph(
    diagram: GeneralizedWiringDiagram, paths: Sequence[Sequence[int]]
) -> tuple[list[list[int]], list[int]]:
    """The internal face cycles and the outer walk of the crossing graph G
    (events as vertices, finite arcs of the wire ``paths`` as edges).

    Both come from the one band pass of :mod:`quasiline.wiring.faces`,
    which :func:`quasiline.wiring.faces.trace_faces_disk` reads too: G's
    internal faces are the arrangement's bounded cells, and its outer
    walk runs round the ends of the bands.  The faces of that pass of
    length 2 are the arrangement's digons; any digon raises
    ``HasDigons`` before G is checked.  Internal faces are listed as
    traced, band cell by band cell, since neither their order nor their
    first vertex reaches any output.  The outer walk places the polygon,
    so it starts at its least dart: arcs are numbered wire by wire, the
    j-th arc of a wire joining its j-th and (j+1)-th events, and arc e
    has dart 2e from its earlier event and 2e + 1 from its later one.
    G is connected, since every two wires cross, and a connected plane
    graph on 3 or more vertices is 2-connected exactly when every face
    walk is a simple cycle (Mohar-Thomassen); otherwise
    ``NotTwoConnected`` is raised.
    """
    n = diagram.n
    cells, infinite, (tops, bottoms, first, last) = _band_cells(diagram)
    digons = sum(len(face) == 2 for face in cells + infinite)
    if digons:
        raise HasDigons(f"{digons} digon(s) found; straightening needs a digon-free diagram")

    for w, path in enumerate(paths, start=1):
        if len(path) < 2:
            raise NotTwoConnected(f"wire {w} has a single crossing; impossible without digons")
    dart: dict[tuple[int, int], int] = {}
    e = 0
    for path in paths:
        for j, (u, v) in enumerate(zip(path, path[1:])):
            dart[u, v], dart[v, u] = 2 * (e + j), 2 * (e + j) + 1
        e += len(path)
    if len(dart) != 2 * (e - len(paths)):
        raise NotTwoConnected("crossing graph is not simple")
    if diagram.event_count < 3:
        raise NotTwoConnected("crossing graph has fewer than 3 vertices")
    # the outer walk, reversed: the top track left to right, the right
    # ends of the bands downwards, the bottom track right to left and the
    # left ends upwards, each run starting where the one before ends
    runs = (
        [bottoms[0]]
        + [tops[t][::-1] + [last[t]] + bottoms[t] for t in range(1, n)]
        + [tops[n][::-1]]
        + [first[t] for t in range(n - 1, 0, -1)]
    )
    walk = [v for run in runs for v in run[1:]][::-1]

    # the outer walk places the polygon, so it starts at its least dart
    darts = [dart[u, v] for u, v in zip(walk, walk[1:] + walk[:1])]
    least = darts.index(min(darts))
    outer = walk[least:] + walk[:least]
    for cycle in cells + [outer]:
        if len(set(cycle)) != len(cycle):
            raise NotTwoConnected(f"crossing graph face walk {cycle} repeats a vertex")
    return cells, outer


# -- outer polygon ------------------------------------------------------------


def _circle_polygon(k: int) -> tuple[list[Coords], int]:
    """k distinct rational points on the unit circle in counterclockwise
    order, as integer numerators over the lcm L of their denominators,
    and L.  The tangent half-angle t = p/q gives the point
    (q² - p², 2pq) / d with d = q² + p², in lowest terms over
    d / gcd(q² - p², 2pq, d).  The half-angles lie in (-π/2, π/2), so
    their tangents are finite and increasing; q starts at 64 and doubles
    until the rounded parameters p are distinct, and so increasing: any
    distinct points on the circle in angle order are strictly convex."""
    q = 64
    while True:
        ps = [round(math.tan((-math.pi + (2 * i + 1) * math.pi / k) / 2) * q) for i in range(k)]
        if len(set(ps)) == k:
            break
        q *= 2
    points = [(q * q - p * p, 2 * p * q, q * q + p * p) for p in ps]
    scale = math.lcm(*(d // math.gcd(x, y, d) for x, y, d in points))
    return [(x * scale // d, y * scale // d) for x, y, d in points], scale


# -- Tutte system -------------------------------------------------------------


def _solve_exact(
    rows: list[dict[int, int]], rhs: list[list[int]], pivot: int
) -> tuple[list[list[int]], int]:
    """Solve ``A · X = rhs`` exactly over the integers, for A symmetric
    positive definite and given by its sparse ``rows`` (column to entry);
    rhs holds one column per coordinate.  Returns (nums, det) with
    X = nums / det and det = det A / pivot^(m - 1) > 0 for m rows: det A
    itself for pivot 1.

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
    (``pivot`` before any), exactly.  The last pivot is det, and
    back-substitution over the pivot rows in reverse yields the integers
    det·X; by Cramer's rule both are the same in every order.

    A ``pivot`` above 1 continues an elimination already begun.  When a
    larger system M has a block D eliminated in closed form, and A is its
    Schur complement M/D scaled by pivot = det D, A's entries are the
    bordered minors of M that Bareiss elimination holds once D's rows are
    pivoted, and det D is the last of those pivots.  So the elimination
    goes on from there over A's rows alone and ends on M's det
    = det D · det(M/D), and on M's det·X restricted to A's rows.
    """
    for i, row in enumerate(rows):
        if any(rows[j].get(i) != x for j, x in row.items()):
            raise QuasilineError("barycentric system is not symmetric")
    rows = [dict(row) for row in rows]
    rhs = [list(b) for b in rhs]
    last = [pivot] * len(rows)  # the pivot of each row's last update
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots = []
    prev = pivot
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
            rows[j] = {
                i: x
                for i in other.keys() | row.keys()
                if (x := (p * other.get(i, 0) - f * row.get(i, 0)) // s)
            }
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
    event_count: int,
    paths: Sequence[Sequence[int]],
    faces: list[list[int]],
    boundary: dict[int, Coords],
) -> tuple[list[Coords], int]:
    """Barycentric positions of the crossing graph G (the events, joined
    along the wire ``paths``) and of one more vertex per internal face s,
    its star, numbered event_count + s and joined to every vertex of the
    face, with the ``boundary`` events pinned.

    ``boundary`` holds integer numerators over some denominator L.  No two
    stars are adjacent, so the stars' block of the pinned Laplacian is
    D = diag(f) over the face lengths f, and its Schur complement has a
    closed form: per internal face of length f, each of its interior
    events gains 1 on its diagonal, -1/f towards every interior event of
    the face, itself included, and 1/f of the face's pinned points on its
    rhs.  Scaled by P = det D, the product of the face lengths, the
    complement is integral and is the Bareiss state once every star is
    pivoted, so :func:`_solve_exact` goes on from pivot P over one row per
    interior event, in order, and det is that of the whole system.  A
    star is the mean of its face: its numerators are the sum of the
    face's placed points over f, exact by Cramer's rule.  Returns
    (placed, det): one point per vertex id over det·L, interior events as
    the solver's numerators and boundary points scaled by det.
    """
    interior = [v for v in range(event_count) if v not in boundary]
    row_of = [-1] * event_count
    for i, v in enumerate(interior):
        row_of[v] = i
    pivot = math.prod(map(len, faces))
    rows = [{i: 0} for i in range(len(interior))]
    rhs = [[0, 0] for _ in interior]
    for path in paths:  # G is simple, so each arc sets its entry once, before the faces
        for u, v in zip(path, path[1:]):
            i, j = row_of[u], row_of[v]
            for a, b, w in ((i, j, v), (j, i, u)):
                if a < 0:
                    continue
                rows[a][a] += pivot
                if b < 0:
                    x, y = boundary[w]
                    rhs[a][0] += x * pivot
                    rhs[a][1] += y * pivot
                else:
                    rows[a][b] = -pivot
    for cycle in faces:
        share = pivot // len(cycle)
        pinned = [boundary[v] for v in cycle if row_of[v] < 0]
        x, y = sum(p[0] for p in pinned) * share, sum(p[1] for p in pinned) * share
        inner = [row_of[v] for v in cycle if row_of[v] >= 0]
        for a in inner:
            row = rows[a]
            row[a] += pivot
            for b in inner:
                row[b] = row.get(b, 0) - share
            rhs[a][0] += x
            rhs[a][1] += y
    nums, det = _solve_exact(rows, rhs, pivot)
    placed: list = [None] * event_count
    for v, (x, y) in boundary.items():
        placed[v] = (x * det, y * det)
    for v, (x, y) in zip(interior, nums):
        placed[v] = (x, y)
    for cycle in faces:
        xs, ys = zip(*(placed[v] for v in cycle))
        placed.append((sum(xs) // len(cycle), sum(ys) // len(cycle)))
    return placed, det


# -- audit --------------------------------------------------------------------


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
    positive = negative = False
    for (sx, sy), cycle in zip(stars, faces):
        x, y = positions[cycle[-1]]
        ux, uy = x - sx, y - sy
        for v in cycle:
            x, y = positions[v]
            vx, vy = x - sx, y - sy
            turn = ux * vy - uy * vx  # the orientation of (star, u, v)
            if turn > 0:
                positive = True
            elif turn < 0:
                negative = True
            else:
                return False
            ux, uy = vx, vy
    return positive != negative


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
    diagram: GeneralizedWiringDiagram,
    paths: Sequence[Sequence[int]],
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
    # of darts must be the window's: the out-directions of its wires top
    # to bottom, then their in-directions.  A wire leaves its last
    # crossing and enters its first along its chord.
    rays = [_sub(positions[last], positions[first]) for first, last in chords]
    placed = [0] * len(paths)
    for v, window in enumerate(diagram.window_wires_table):
        (hx, hy), outs, ins = positions[v], [], []
        for w in window:
            path, j = paths[w - 1], placed[w - 1]
            placed[w - 1] = j + 1
            if j + 1 < len(path):
                x, y = positions[path[j + 1]]
                outs.append((x - hx, y - hy))
            else:
                outs.append(rays[w - 1])
            if j:
                x, y = positions[path[j - 1]]
                ins.append((x - hx, y - hy))
            else:
                x, y = rays[w - 1]
                ins.append((-x, -y))
        if not _winds_once(outs + ins):
            return False
    return True


# -- main entry ---------------------------------------------------------------


def straighten(diagram: GeneralizedWiringDiagram) -> StraightDrawing:
    """Embedding-preserving straight-line drawing with zero bends.

    Requires a digon-free diagram (``HasDigons`` otherwise).  The finite
    crossing graph's faces, and the arrangement's digons, are read off the
    bands between tracks in one pass, and the graph is verified simple and
    2-connected by its simple face walks (``NotTwoConnected`` signals an
    internal invariant violation).
    """
    wire_paths = tuple(diagram.wire_events(w) for w in range(1, diagram.n + 1))
    internal_faces, outer_walk = _crossing_graph(diagram, wire_paths)
    chords = [(path[0], path[-1]) for path in wire_paths]
    on_outer = set(outer_walk)
    for w, (first, last) in enumerate(chords, start=1):
        if first not in on_outer or last not in on_outer:
            raise QuasilineError(
                f"wire {w} does not reach the outer boundary; identification failed"
            )
    if not _chords_alternate(outer_walk, chords):
        raise QuasilineError(
            "wire chords do not alternate round the outer walk; their lines cannot all cross"
        )

    # The outer walk goes counterclockwise round the polygon: it is laid on
    # the circle points mirrored in the x-axis, taken in reverse order.  A
    # mirror image reverses the rotation at every crossing, so only this
    # orientation can pass the rotation audit.
    m = diagram.event_count
    polygon, scale = _circle_polygon(len(outer_walk))
    boundary = {v: (x, -y) for v, (x, y) in zip(reversed(outer_walk), polygon)}
    placed, det = _tutte_positions(m, wire_paths, internal_faces, boundary)
    positions, stars = placed[:m], placed[m:]
    if not _audit(diagram, wire_paths, positions, stars, internal_faces, outer_walk, chords):
        raise QuasilineError("the straight-line drawing failed its audit")
    d = det * scale
    return StraightDrawing(
        diagram.n,
        tuple((Fraction(x, d), Fraction(y, d)) for x, y in positions),
        tuple(outer_walk),
        tuple(chords),
        wire_paths,
    )


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
    """The drawing of :func:`drawing_to_json_dict`.  A chord or wire count
    other than ``n``, an event index past the positions, or a chord other
    than the first and last events of its wire's path raises
    ValidationError."""
    drawing = StraightDrawing(**read(data, {
        "n": as_int, "positions": [(as_fraction, as_fraction)], "outer_cycle": [as_int],
        "chords": [(as_int, as_int)], "wire_paths": [[as_int]],
    }))
    events = itertools.chain(drawing.outer_cycle, *drawing.chords, *drawing.wire_paths)
    if not drawing.n == len(drawing.chords) == len(drawing.wire_paths) or not all(
        0 <= v < len(drawing.positions) for v in events
    ):
        raise ValidationError("drawing JSON: wires or event indices do not fit the positions")
    for w, (chord, path) in enumerate(zip(drawing.chords, drawing.wire_paths), start=1):
        if not path or chord != (path[0], path[-1]):
            raise ValidationError(f"drawing JSON: chord {w} does not join the ends of its wire path")
    return drawing
