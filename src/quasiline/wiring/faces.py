"""Cell complex of a wiring diagram in the projective plane.

The crossings of a diagram cut every wire into arcs; exactly one arc per
wire runs through the line at infinity (the antipodal boundary of the
disk model).  Vertices, arcs and faces form the arrangement's cell
complex on the projective plane, so V - E + F = 1 always holds.  Digons
(2-sided faces) are the obstruction to bend-free straightening.

Every face is a band cell.  Band t (0 <= t <= n) is the strip between
tracks t and t + 1, and the events whose windows hold both tracks cut it
into cells.  Its bounded cells lie between consecutive cuts; its last
cell runs off to the right and comes back, through infinity, as the
first cell of band n - t, since the track at position t on the right
continues as track n + 1 - t on the left.  Bands 0 and n have no cuts
and together make one more face.  A face is the cycle of events its
boundary walks.  :func:`trace_faces_disk` reads every face off one pass
over the events (``_band_cells``) and builds no rotation map, and
straighten reads its crossing graph's faces, its outer walk and the
arrangement's digons off the same pass.

:func:`wire_map` is the one builder of signed rotation systems from
wires: the surface map of :mod:`quasiline.surface` is the arrangement's
map restricted to the designated crossings.
"""

from __future__ import annotations

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

    The kept events in event order are the vertices, event i with id
    ``vertex_of[i]``.  Edges are numbered wire by wire: the wire's j-th
    edge joins its j-th and (j+1)-th kept events, and its last edge
    closes through infinity with signature -1.  Rotations follow the
    drawing counterclockwise: at an event with window wires w_1..w_l
    (top to bottom) the order is out(w_1)..out(w_l), in(w_1)..in(w_l).
    Raises ``WireWithoutPoint`` when some wire meets no kept event.

    With k_w kept events on wire w, its edges are numbered from
    off[w] = k_1 + ... + k_(w-1); one walk over the kept events in
    order gives the j-th kept event on w the out-dart 2(off[w] + j) and
    the in-dart 2e + 1, where e is the out-edge of the previous kept
    event on w, or the closing edge off[w] + k_w - 1 at the first.
    """
    window_wires = diagram.window_wires_table
    kept = sorted(vertex_of)
    count = [0] * (diagram.n + 1)
    for i in kept:
        for w in window_wires[i]:
            count[w] += 1
    nxt = [0] * (diagram.n + 1)  # per wire, its next out-edge
    prev = nxt[:]  # per wire, its last out-edge so far
    arcs: list[ArcId] = []
    signature: list[int] = []
    for w in range(1, diagram.n + 1):
        k = count[w]
        if not k:
            raise WireWithoutPoint(f"wire {w} carries no designated point")
        nxt[w] = len(arcs)
        arcs.extend(zip([w] * k, range(k)))
        prev[w] = len(arcs) - 1
        signature += [1] * (k - 1)
        signature.append(-1)
    heads = [0] * len(arcs)
    tails = heads.copy()
    rotations = []
    for v, i in enumerate(kept):
        outs, ins = [], []
        for w in window_wires[i]:
            out, back = nxt[w], prev[w]
            nxt[w], prev[w] = out + 1, out
            heads[out] = tails[back] = v
            outs.append(2 * out)
            ins.append(2 * back + 1)
        rotations.append(tuple(outs + ins))
    vertices = tuple(vertex_of[i] for i in kept)
    rm = RotationMap(vertices, tuple(zip(heads, tails)), tuple(rotations), tuple(signature))
    return rm, tuple(arcs)


def _band_cells(
    diagram: GeneralizedWiringDiagram,
) -> tuple[list[list[int]], list[list[int]], tuple[list, list, list, list]]:
    """The one band pass over the events: the bounded cells, the faces
    through infinity, and the band ends (tops, bottoms, first, last).

    Band t lies between tracks t and t + 1.  An event with window [a, b]
    touches band a - 1 from below and band b from above, and cuts bands
    a .. b - 1.  A bounded cell of band t is the cycle [left cut, events
    above, right cut, events below reversed].  Once every event is read,
    tops[t] and bottoms[t] hold the events touching the last cell of band
    t from above and below, after its last cut last[t], and first[t] is
    the run round its left end, from the bottom track round the band's
    first cut to the top track.  The last cell of band t and the first of
    band n - t make one face, and bands 0 and n make one more.
    O(sum of window lengths + n).
    """
    n = diagram.n
    tops: list[list[int]] = [[] for _ in range(n + 1)]
    bottoms: list[list[int]] = [[] for _ in range(n + 1)]
    first: list = [None] * (n + 1)
    last = [0] * (n + 1)
    cells = []
    for i, move in enumerate(diagram.moves):
        bottoms[move.start - 1].append(i)
        tops[move.stop].append(i)
        for t in range(move.start, move.stop):
            if first[t] is None:
                first[t] = bottoms[t] + [i] + tops[t][::-1]
            else:
                cells.append([last[t]] + tops[t] + [i] + bottoms[t][::-1])
            last[t] = i
            tops[t], bottoms[t] = [], []
    infinite = [[last[t]] + tops[t] + first[n - t] + bottoms[t][::-1] for t in range(1, n)]
    infinite.append(bottoms[0] + tops[n])
    return cells, infinite, (tops, bottoms, first, last)


def trace_faces_disk(diagram: GeneralizedWiringDiagram) -> tuple[tuple[int, ...], ...]:
    """All faces of the arrangement, infinity arcs included, each as the
    cycle of events its boundary walks, sorted by length.

    A face of length k has k sides, one arc between each two consecutive
    events of its cycle, the last back to the first; an arc through
    infinity joins a wire's last event to its first.  Faces of equal
    length keep the order of the band pass: the bounded cells band cell
    by band cell, then the faces through infinity.
    """
    cells, infinite, _ = _band_cells(diagram)
    return tuple(sorted(map(tuple, cells + infinite), key=len))
