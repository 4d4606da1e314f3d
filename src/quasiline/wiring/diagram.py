"""Generalized wiring diagrams and their sweep structure.

A generalized wiring diagram draws n x-monotone wires entering on the
left in order 1..n (top to bottom); at each event a window of adjacent
wires crosses transversally, reversing its top-to-bottom order.  Every
pair of wires must cross an odd number of times, so the right-hand order
is the full reversal and the closed-up picture (a disk with antipodal
boundary points identified) is a monotone quasiline arrangement.

A diagram is a generalized allowable sequence whose designated moves
carry their point labels: :class:`GeneralizedWiringDiagram` is a
:class:`~quasiline.sequences.PermSequence` whose events are its moves,
with the prefix permutations, window wires and per-wire crossing orders
of that type.  The sweep digraph and abstract boundary data for
monotonicity tests are derived here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Optional

from ..errors import NotGeneralized, ValidationError
from ..realization import Realization
from ..sequences import Move, PermSequence, _as_int

# The prefix permutations hold n entries per event, so the wire count is
# bounded before any of them is built.
MAX_WIRES = 100_000

@dataclass(frozen=True)
class GeneralizedWiringDiagram(PermSequence):
    """A generalized allowable sequence on at least two wires."""

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("an arrangement needs at least 2 wires")
        super().__post_init__()
        # every pair of wires must cross and a move crosses C(length, 2)
        # pairs: an O(m) bound, checked before any n-sized table is built,
        # and so is the wire count
        pairs = self.n * (self.n - 1) // 2
        crossed = sum(m.length * (m.length - 1) // 2 for m in self.moves)
        if crossed < pairs:
            raise NotGeneralized(
                f"the moves cross at most {crossed} of the {pairs} pairs of wires; "
                "every pair must cross an odd number of times"
            )
        if self.n > MAX_WIRES:
            raise ValidationError(f"an arrangement has at most {MAX_WIRES} wires, got {self.n}")
        final = self.permutations[-1]
        for x, y in zip(final, final[1:]):
            if x < y:
                raise NotGeneralized(
                    f"wires {x} and {y} cross an even number of times; "
                    "every pair must cross an odd number of times"
                )


def diagram_from_realization(realization: Realization) -> GeneralizedWiringDiagram:
    return GeneralizedWiringDiagram(realization.seq.n, realization.seq.moves)


# -- sweep digraphs ---------------------------------------------------------


def sweep_digraph(diagram: GeneralizedWiringDiagram) -> tuple[tuple[int, int], ...]:
    """Crossing-adjacency digraph on the events 0..m-1, as its sorted arc
    tuple: one arc per pair of crossings that are consecutive along a
    wire, oriented left to right (arcs never follow a wire through
    infinity)."""
    arcs = set()
    for w in range(1, diagram.n + 1):
        evs = diagram.wire_events(w)
        arcs.update(zip(evs, evs[1:]))
    return tuple(sorted(arcs))


def topological_sweep(diagram: GeneralizedWiringDiagram) -> list[int]:
    """A sweep order of the crossings: each prefix cuts every wire's event
    list in a prefix, so consecutive sweep curves separate one vertex.

    The event order is one: a wire's events are listed left to right, so
    every arc of :func:`sweep_digraph` goes from a lower event index to a
    higher one, and the digraph is acyclic with the identity as its
    smallest-first topological order.
    """
    return list(range(diagram.event_count))


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


# -- JSON -------------------------------------------------------------------


def diagram_to_json_dict(diagram: GeneralizedWiringDiagram) -> dict:
    return {
        "n": diagram.n,
        "events": [
            [m.start, m.length, None if m.point is None else str(m.point)]
            for m in diagram.moves
        ],
    }


def diagram_from_json_dict(data: dict) -> GeneralizedWiringDiagram:
    try:
        n = _as_int(data["n"])
        moves = tuple(
            Move(_as_int(s), _as_int(l), p if p is None else str(p))
            for s, l, p in data["events"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed diagram JSON: {exc}") from exc
    return GeneralizedWiringDiagram(n, moves)
