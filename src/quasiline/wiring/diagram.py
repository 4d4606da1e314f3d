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

from ..errors import CyclicInput, NotGeneralized, ValidationError
from ..realization import Realization
from ..sequences import Move, PermSequence


@dataclass(frozen=True)
class GeneralizedWiringDiagram(PermSequence):
    """A generalized allowable sequence on at least two wires."""

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("an arrangement needs at least 2 wires")
        super().__post_init__()
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


@dataclass(frozen=True)
class SweepDigraph:
    """Crossing-adjacency digraph: one arc per pair of crossings that are
    consecutive along a wire, oriented left to right (arcs never follow a
    wire through infinity)."""

    vertices: tuple[Hashable, ...]
    arcs: tuple[tuple[Hashable, Hashable], ...]

    @cached_property
    def successors(self) -> dict[Hashable, tuple[Hashable, ...]]:
        table: dict[Hashable, list[Hashable]] = {v: [] for v in self.vertices}
        for u, v in self.arcs:
            table[u].append(v)
        return {u: tuple(vs) for u, vs in table.items()}


def sweep_digraph(diagram: GeneralizedWiringDiagram) -> SweepDigraph:
    arcs = set()
    for w in range(1, diagram.n + 1):
        evs = diagram.wire_events(w)
        for u, v in zip(evs, evs[1:]):
            arcs.add((u, v))
    return SweepDigraph(tuple(range(diagram.event_count)), tuple(sorted(arcs)))


def is_acyclic(digraph: SweepDigraph) -> bool:
    try:
        topological_order(digraph)
        return True
    except CyclicInput:
        return False


def topological_order(digraph: SweepDigraph) -> list[Hashable]:
    """Kahn's algorithm with smallest-vertex tie-breaking; raises
    ``CyclicInput`` on a directed cycle."""
    indeg = {v: 0 for v in digraph.vertices}
    for _, v in digraph.arcs:
        indeg[v] += 1
    import heapq

    ready = [v for v in digraph.vertices if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in digraph.successors[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(ready, u)
    if len(order) != len(digraph.vertices):
        raise CyclicInput("digraph contains a directed cycle")
    return order


def topological_sweep(diagram: GeneralizedWiringDiagram) -> list[int]:
    """A sweep order of the crossings: each prefix cuts every wire's event
    list in a prefix, so consecutive sweep curves separate one vertex."""
    return topological_order(sweep_digraph(diagram))


# -- abstract arrangements and monotone markings -----------------------------


@dataclass(frozen=True)
class AbstractArrangement:
    """Boundary endpoint order plus per-line crossing orders.

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
    """First boundary gap that yields a proper marking, or None."""
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
        n = int(data["n"])
        moves = tuple(
            Move(int(s), int(l), p if p is None else str(p))
            for s, l, p in data["events"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed diagram JSON: {exc}") from exc
    return GeneralizedWiringDiagram(n, moves)
