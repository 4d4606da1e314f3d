"""Cell complex of a wiring diagram in the projective plane.

The crossings of a diagram cut every wire into arcs; exactly one arc per
wire runs through the line at infinity (the antipodal boundary of the
disk model).  Vertices, arcs and the faces traced from the rotation
system form the arrangement's cell complex on the projective plane, so
V - E + F = 1 always holds.  Digons (2-sided faces) are the obstruction
to bend-free straightening.

:func:`wire_map` is the one builder of signed rotation systems from
wires: the arrangement map keeps every crossing, and the surface map of
:mod:`quasiline.surface` is the same map restricted to the designated
crossings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Mapping

from ..errors import WireWithoutPoint
from ..rotmaps import RotationMap
from .diagram import GeneralizedWiringDiagram

ArcId = tuple[int, int]  # (wire, arc index along the wire); the last arc closes
                         # through infinity


def wire_map(
    diagram: GeneralizedWiringDiagram, vertex_of: Mapping[int, Hashable]
) -> tuple[RotationMap, tuple[ArcId, ...]]:
    """The signed rotation map of the diagram's wires through the events
    kept in ``vertex_of``, and the (wire, arc index) of every edge.

    Event i becomes vertex ``vertex_of[i]``; vertices follow the order
    of ``vertex_of``.  Edges are numbered wire by wire: the wire's j-th
    edge joins its j-th and (j+1)-th kept events, and its last edge
    closes through infinity with signature -1.  Rotations follow the
    drawing counterclockwise: at an event with window wires w_1..w_l
    (top to bottom) the order is out(w_1)..out(w_l), in(w_1)..in(w_l).
    Raises ``WireWithoutPoint`` when some wire meets no kept event.

    With k_w kept events on wire w, its edges are numbered from
    off[w] = k_1 + ... + k_(w-1); one walk over the kept events in
    order, counting per wire, gives the j-th kept event on w the out-dart
    (off[w] + j, 0) and the in-dart (off[w] + (j - 1 mod k_w), 1).
    """
    window_wires = diagram.window_wires_table
    kept = sorted(vertex_of)
    count = Counter(w for i in kept for w in window_wires[i])
    off = [0] * (diagram.n + 1)
    arcs: list[ArcId] = []
    for w in range(1, diagram.n + 1):
        if not count[w]:
            raise WireWithoutPoint(f"wire {w} carries no designated point")
        off[w] = len(arcs)
        arcs.extend((w, j) for j in range(count[w]))
    heads: list[Hashable] = [None] * len(arcs)
    tails = heads.copy()
    placed = [0] * (diagram.n + 1)
    rotations = {}
    for i in kept:
        outs, ins = [], []
        for w in window_wires[i]:
            j = placed[w]
            placed[w] = j + 1
            out, back = off[w] + j, off[w] + (j - 1) % count[w]
            heads[out] = tails[back] = vertex_of[i]
            outs.append((out, 0))
            ins.append((back, 1))
        rotations[vertex_of[i]] = tuple(outs + ins)
    signature = tuple(-1 if j == count[w] - 1 else 1 for w, j in arcs)
    rm = RotationMap(tuple(vertex_of.values()), tuple(zip(heads, tails)), rotations, signature)
    return rm, tuple(arcs)


def full_wire_map(
    diagram: GeneralizedWiringDiagram,
) -> tuple[RotationMap, tuple[ArcId, ...]]:
    """:func:`wire_map` over every event, with event indices as vertices."""
    return wire_map(diagram, {i: i for i in range(diagram.event_count)})


def arrangement_map(diagram: GeneralizedWiringDiagram) -> RotationMap:
    """The diagram's cell complex as a signed rotation map: every event
    is a vertex and every arc an edge (see :func:`wire_map`)."""
    return full_wire_map(diagram)[0]


@dataclass(frozen=True)
class ArrangementFace:
    """A face of the cell complex, as the cyclic list of arc sides walked."""

    sides: tuple[ArcId, ...]

    def __len__(self) -> int:
        return len(self.sides)


def trace_faces_disk(diagram: GeneralizedWiringDiagram) -> tuple[ArrangementFace, ...]:
    """All faces of the arrangement, infinity arcs included."""
    rm, arcs = full_wire_map(diagram)
    faces = [ArrangementFace(tuple(arcs[x >> 2] for x in orbit)) for orbit in rm.faces]
    return tuple(sorted(faces, key=lambda f: (len(f), f.sides)))
