"""Wiring diagrams from Euclidean line arrangements, in exact arithmetic.

Input lines are given as rational triples (a, b, c) with ax + by = c; a
subset of their intersection points may be selected as designated points
of an incidence structure.  A projective change of chart makes every
pairwise intersection finite (no two lines parallel), no line vertical,
and all distinct crossings separated in x; wires are then ordered by
slope and events by crossing abscissa.  Crossings at one point merge
into a single window.  Everything uses Fractions; there are no epsilon
tolerances anywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Hashable, Optional, Sequence

from ..errors import DuplicateLine, UnresolvableChart, ValidationError
from ..sequences import Move
from .diagram import GeneralizedWiringDiagram

Rational = Fraction | int
Vec3 = tuple[Fraction, Fraction, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{x!r} is not a rational value") from exc
    raise ValidationError(f"expected a rational value, got {x!r}")


def _rows(rows, size: int, what: str) -> list[tuple[Fraction, ...]]:
    out = [tuple(map(_as_fraction, row)) for row in rows]
    if any(len(row) != size for row in out):
        raise ValidationError(f"every {what} needs {size} coordinates")
    return out


def _primitive(triple: Sequence[Fraction]) -> tuple[int, int, int]:
    """Scale a rational triple to a canonical primitive integer vector."""
    denom = 1
    for x in triple:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in triple]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        raise ValidationError("the zero triple is not a line")
    ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-u for u in ints]
            break
    return tuple(ints)  # type: ignore[return-value]


def _cross(p: Sequence, q: Sequence) -> tuple:
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _dot(p: Sequence, q: Sequence):
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


def _chart_candidates():
    yield (0, 0, 1)
    for radius in range(1, 8):
        for p in range(-radius, radius + 1):
            for q in range(-radius, radius + 1):
                if max(abs(p), abs(q)) == radius:
                    yield (p, q, 1)


def _shear_candidates():
    yield Fraction(0)
    for k in range(1, 40):
        yield Fraction(k)
        yield Fraction(-k)
        yield Fraction(1, k + 1)
        yield Fraction(-1, k + 1)


def diagram_from_lines(
    lines: Sequence[tuple[Rational, Rational, Rational]],
    points: Sequence[tuple[Rational, Rational]] = (),
    point_labels: Optional[Sequence[Hashable]] = None,
) -> GeneralizedWiringDiagram:
    """Sweep an arrangement of distinct lines into a wiring diagram.

    ``points`` selects intersection points (in the input chart) that
    become designated events, labelled P1, P2, ... unless
    ``point_labels`` says otherwise.  Raises ``DuplicateLine`` for
    coincident lines and ``UnresolvableChart`` when no candidate chart
    separates the data (which, over the finite candidate lists used,
    should never happen for valid input).
    """
    covectors = []
    seen: set[tuple[int, int, int]] = set()
    for a, b, c in _rows(lines, 3, "line"):
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
    selected = [(x, y, Fraction(1)) for x, y in _rows(points, 2, "point")]

    meets = [
        _cross(covectors[i], covectors[j])
        for i, j in itertools.combinations(range(n), 2)
    ]

    chart = None
    for w in _chart_candidates():
        if any(_dot(w, p) == 0 for p in meets):
            continue
        if any(_cross(w, l) == (0, 0, 0) for l in covectors):
            continue
        chart = w
        break
    if chart is None:
        raise UnresolvableChart("no candidate chart separates the intersections")

    basis = None
    for r1, r2 in itertools.combinations(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2):
        if _det3([r1, r2, chart]) != 0:
            basis = (r1, r2)
            break
    assert basis is not None
    matrix = [list(map(Fraction, basis[0])), list(map(Fraction, basis[1])), list(map(Fraction, chart))]
    minv = _inv3(matrix)

    def transform_line(l: Vec3) -> tuple[Fraction, Fraction, Fraction]:
        # Covectors transform by the inverse matrix: (a, b, -c) @ minv.
        row = [
            l[0] * minv[0][j] + l[1] * minv[1][j] + l[2] * minv[2][j]
            for j in range(3)
        ]
        return (row[0], row[1], -row[2])

    def transform_point(p: Vec3) -> tuple[Fraction, Fraction]:
        img = [
            matrix[i][0] * p[0] + matrix[i][1] * p[1] + matrix[i][2] * p[2]
            for i in range(3)
        ]
        if img[2] == 0:
            # every crossing is finite in this chart
            raise ValidationError("a selected point is not an intersection of the lines")
        return (img[0] / img[2], img[1] / img[2])

    abc = [transform_line(l) for l in covectors]

    # Pairwise crossings in the new chart (all finite by chart choice).
    crossing_at: dict[tuple[Fraction, Fraction], set[int]] = {}
    for i, j in itertools.combinations(range(n), 2):
        a1, b1, c1 = abc[i]
        a2, b2, c2 = abc[j]
        det = a1 * b2 - a2 * b1
        assert det != 0, "chart left two lines parallel"
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        crossing_at.setdefault((x, y), set()).update((i, j))

    shear = None
    positions = list(crossing_at)
    for t in _shear_candidates():
        if any(b - a * t == 0 for a, b, _ in abc):
            continue
        xs = [x + t * y for x, y in positions]
        if len(set(xs)) != len(xs):
            continue
        shear = t
        break
    if shear is None:
        raise UnresolvableChart("no candidate shear separates crossing abscissae")

    def sheared(p: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        return (p[0] + shear * p[1], p[1])

    abc = [(a, b - a * shear, c) for a, b, c in abc]
    crossings = {sheared(p): ls for p, ls in crossing_at.items()}

    label_of: dict[tuple[Fraction, Fraction], Hashable] = {}
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

    # Wires ordered by slope: smallest slope is the top wire at the far left.
    slopes = [(-a / b, idx) for idx, (a, b, _) in enumerate(abc)]
    slopes.sort()
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
