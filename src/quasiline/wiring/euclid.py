"""Wiring diagrams from Euclidean line arrangements, in exact arithmetic.

Input lines are given as rational triples (a, b, c) with ax + by = c; a
subset of their intersection points may be selected as designated points
of an incidence structure.  Each line becomes its primitive integer
covector l = (a, b, -c) and each crossing the integer cross product
l × l', reduced by the gcd of its entries, its homogeneous coordinates.
One table maps every crossing to the set of lines through it, so
concurrent lines share one key and one window.  The chart puts the line
w·X = 0 at infinity, for the first candidate w = (p, q, 1) that misses
every crossing, so every crossing m is finite there, at
(m₀, m₁) / (w·m).  The chart's matrix is unimodular, so every line l
keeps an integer normal (l₀ − p·l₂, l₁ − q·l₂) and no matrix is
inverted.  A shear separates the crossings in x and leaves no line
vertical; each shear candidate is tested on the abscissas as reduced
integer pairs, and given up at the first pair that repeats.  Wires are
ordered by slope and events by abscissa, each a ratio of two integers
compared by cross-multiplication, and the sweep reads every wire's
track from a position table.  ``Fraction``s appear only where the input
is parsed; there are no epsilon tolerances anywhere.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Hashable, Optional, Sequence

from ..errors import DuplicateLine, QuasilineError, ValidationError
from ..jsonshape import as_fraction, read
from ..sequences import Move
from .diagram import GeneralizedWiringDiagram

Rational = Fraction | int


def _integral(triple: Sequence[Rational]) -> tuple[int, int, int]:
    """A rational triple scaled to integers by the lcm of its denominators."""
    scale = math.lcm(*(x.denominator for x in triple))
    return tuple(x.numerator * (scale // x.denominator) for x in triple)  # type: ignore[return-value]


def _primitive(triple: Sequence[int]) -> tuple[int, int, int]:
    """A nonzero integer triple divided by the gcd of its entries, signed
    so that its first nonzero entry is positive."""
    a, b, c = triple
    g = math.gcd(a, b, c)
    if a < 0 or (a == 0 and (b < 0 or (b == 0 and c < 0))):
        g = -g
    return (a // g, b // g, c // g)


def _ratio_order(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """The indices of the integer pairs (num, den), den ≠ 0, in increasing
    order of num / den, compared by cross-multiplication; ties keep their
    index order."""
    signed = [(num, den) if den > 0 else (-num, -den) for num, den in pairs]

    def cmp(i: int, j: int) -> int:
        return signed[i][0] * signed[j][1] - signed[j][0] * signed[i][1]

    return sorted(range(len(signed)), key=cmp_to_key(cmp))


def _cross(p: Sequence, q: Sequence) -> tuple:
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _chart_candidates():
    """Charts (p, q, 1) in squares of growing radius about (0, 0)."""
    yield (0, 0, 1)
    for radius in itertools.count(1):
        for p in range(-radius, radius + 1):
            for q in range(-radius, radius + 1):
                if max(abs(p), abs(q)) == radius:
                    yield (p, q, 1)


def _shear_candidates():
    """Shears x -> x + (r/s)·y as pairs (r, s) with s > 0."""
    yield (0, 1)
    for k in itertools.count(1):
        yield (k, 1)
        yield (-k, 1)
        yield (1, k + 1)
        yield (-1, k + 1)


def _shear(points, normals) -> tuple[int, int]:
    """The first shear candidate (r, s) that leaves no line vertical and
    gives the finite points (x, y, z) distinct abscissas
    (s·x + r·y) / (s·z).  Abscissas are compared as reduced integer pairs
    with a positive denominator, and a candidate is given up at the
    first pair of points that share one."""
    for r, s in _shear_candidates():
        if any(s * b == r * a for a, b in normals):
            continue
        seen = set()
        for x, y, z in points:
            num, den = s * x + r * y, s * z
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            key = (num // g, den // g)
            if key in seen:
                break
            seen.add(key)
        else:
            return r, s


def _hashable(label: Hashable) -> Hashable:
    """A point label as it is; an unhashable one raises ``TypeError``."""
    hash(label)
    return label


def diagram_from_lines(
    lines: Sequence[tuple[Rational, Rational, Rational]],
    points: Sequence[tuple[Rational, Rational]] = (),
    point_labels: Optional[Sequence[Hashable]] = None,
) -> GeneralizedWiringDiagram:
    """Sweep an arrangement of distinct lines into a wiring diagram.

    ``points`` selects intersection points (in the input chart) that
    become designated events, labelled P1, P2, ... unless
    ``point_labels`` says otherwise.  Raises ``DuplicateLine`` for
    coincident lines.

    Both candidate searches are unbounded and always end.  A crossing m
    rules out the charts (p, q) on the line p·m₀ + q·m₁ + m₂ = 0, or
    none, and finitely many lines cannot cover the boundary of every
    square.  A line rules out the one shear ratio r/s that would make it
    vertical, a pair of crossings the one that would give them one
    abscissa, and the candidate ratios are all distinct.
    """
    covectors = []
    seen: set[tuple[int, int, int]] = set()
    for a, b, c in read(lines, [(as_fraction,) * 3]):
        if a == 0 and b == 0:
            raise ValidationError(f"({a}, {b}, {c}) is not a line")
        prim = _primitive(_integral((a, b, -c)))
        if prim in seen:
            raise DuplicateLine(f"line ({a}, {b}, {c}) duplicates an earlier one")
        seen.add(prim)
        covectors.append(prim)
    n = len(covectors)
    if n < 2:
        raise ValidationError("an arrangement needs at least 2 lines")

    points = read(points, [(as_fraction,) * 2])
    if point_labels is None:
        point_labels = [f"P{i}" for i in range(1, len(points) + 1)]
    point_labels = read(point_labels, [_hashable])
    if len(point_labels) != len(points):
        raise ValidationError("need exactly one label per selected point")
    selected = [_primitive(_integral((x, y, 1))) for x, y in points]

    lines_at: dict[tuple[int, int, int], set[int]] = {}
    for i, j in itertools.combinations(range(n), 2):
        m = _primitive(_cross(covectors[i], covectors[j]))
        lines_at.setdefault(m, set()).update((i, j))

    crossings = list(lines_at)
    chart = next(
        w for w in _chart_candidates() if all(w[0] * x + w[1] * y + z for x, y, z in crossings)
    )
    p, q, _ = chart
    normals = [(l0 - p * l2, l1 - q * l2) for l0, l1, l2 in covectors]
    finite = [(x, y, p * x + q * y + z) for x, y, z in crossings]
    r, s = _shear(finite, normals)

    label_of: dict[tuple[int, int, int], Hashable] = {}
    for label, m in zip(point_labels, selected):
        if m not in lines_at:
            raise ValidationError(
                f"selected point {label!r} is not an intersection of the lines"
            )
        if m in label_of:
            raise ValidationError(f"selected points {label_of[m]!r} and {label!r} coincide")
        label_of[m] = label

    # Wires ordered by slope -a·s / (s·b - r·a): smallest slope is the top
    # wire at the far left.
    slopes = _ratio_order([(-a * s, s * b - r * a) for a, b in normals])
    wire_of_line = {i: w for w, i in enumerate(slopes, start=1)}

    # Events ordered by abscissa (s·x + r·y) / (s·z); track[w] is the
    # 0-based position of wire w in perm.
    perm = list(range(1, n + 1))
    track = [0] + list(range(n))
    moves = []
    for k in _ratio_order([(s * x + r * y, s * z) for x, y, z in finite]):
        m = crossings[k]
        wires = sorted(wire_of_line[i] for i in lines_at[m])
        lo = track[wires[0]]
        hi = lo + len(wires)
        if perm[lo:hi] != wires:
            raise QuasilineError(f"wires {wires} of one crossing are not adjacent in order")
        moves.append(Move(lo + 1, len(wires), label_of.get(m)))
        wires.reverse()
        perm[lo:hi] = wires
        for t, w in enumerate(wires, start=lo):
            track[w] = t
    # the diagram checks that the sweep ends at the reversal
    return GeneralizedWiringDiagram(n, tuple(moves))
