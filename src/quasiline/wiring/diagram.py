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
with the window wires, per-wire crossing orders and on-demand
permutations of that type.  A realization holds its diagram, built
once, so :func:`diagram_from_realization` returns it.  The sweep digraph
is derived here, and so is each event's first successor in it, which
the digon moves read.
Every such diagram can be swept, since its wires are x-monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import NotGeneralized, ValidationError
from ..jsonshape import as_int, as_text_or_null, read
from ..sequences import Move, PermSequence


@dataclass(frozen=True)
class GeneralizedWiringDiagram(PermSequence):
    """A generalized allowable sequence on at least two wires."""

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("an arrangement needs at least 2 wires")
        super().__post_init__()
        # every pair of wires must cross and a move crosses C(length, 2)
        # pairs: an O(m) bound, checked before the replay bounds the wire
        # count and builds the first n-sized table
        pairs = self.n * (self.n - 1) // 2
        crossed = sum(m.length * (m.length - 1) // 2 for m in self.moves)
        if crossed < pairs:
            raise NotGeneralized(
                f"the moves cross at most {crossed} of the {pairs} pairs of wires; "
                "every pair must cross an odd number of times"
            )
        final = self._replay[1]
        for x, y in zip(final, final[1:]):
            if x < y:
                raise NotGeneralized(
                    f"wires {x} and {y} cross an even number of times; "
                    "every pair must cross an odd number of times"
                )

    @cached_property
    def next_on_wires(self) -> tuple[int, ...]:
        """Per event, the first later event on any of its wires, or the
        event count when there is none: the least head of its arcs in
        :func:`sweep_digraph`.  One pass over the window table keeps
        each wire's last event; an event's entry is set by the first
        event after it to meet one of its wires."""
        m = self.event_count
        nxt = [m] * (m + 1)  # entry m absorbs the wires' first events
        last = [m] * (self.n + 1)
        for i, wires in enumerate(self.window_wires_table):
            for w in wires:
                j = last[w]
                if nxt[j] == m:
                    nxt[j] = i
                last[w] = i
        return tuple(nxt[:m])


def diagram_from_realization(realization) -> GeneralizedWiringDiagram:
    """The wiring diagram a :class:`~quasiline.realization.Realization`
    holds as its ``seq``; no move is replayed again."""
    return realization.seq


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
    doc = read(data, {"n": as_int, "events": [(as_int, as_int, as_text_or_null)]})
    return GeneralizedWiringDiagram(doc["n"], tuple(Move(*event) for event in doc["events"]))
