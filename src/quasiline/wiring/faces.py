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
and together make one more face.  :func:`trace_faces_disk` reads every
face off one pass over the window table and builds no rotation map; a
face is the plain tuple of the arc sides it walks.

:func:`wire_map` is the one builder of signed rotation systems from
wires: :func:`arrangement_map` keeps every crossing, and the surface map
of :mod:`quasiline.surface` is the same map restricted to the designated
crossings.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..errors import QuasilineError, WireWithoutPoint
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
    order gives the j-th kept event on w the out-dart (off[w] + j, 0)
    and the in-dart (e, 1), where e is the out-edge of the previous kept
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
    heads: list[Hashable] = [None] * len(arcs)
    tails = heads.copy()
    rotations = {}
    for i in kept:
        v = vertex_of[i]
        outs, ins = [], []
        for w in window_wires[i]:
            out, back = nxt[w], prev[w]
            nxt[w], prev[w] = out + 1, out
            heads[out] = tails[back] = v
            outs.append((out, 0))
            ins.append((back, 1))
        rotations[v] = tuple(outs + ins)
    rm = RotationMap(
        tuple(vertex_of.values()), tuple(zip(heads, tails)), rotations, tuple(signature)
    )
    return rm, tuple(arcs)


def arrangement_map(diagram: GeneralizedWiringDiagram) -> RotationMap:
    """The diagram's cell complex as a signed rotation map: every event
    is a vertex and every arc an edge (see :func:`wire_map`)."""
    return wire_map(diagram, {i: i for i in range(diagram.event_count)})[0]


def _sides(forward: list[ArcId], backward: list[ArcId]) -> tuple[ArcId, ...]:
    """The sides of the face whose boundary walks ``forward`` in its wires'
    direction and then ``backward`` against theirs, from its least arc
    and turned so that this arc is walked in its wire's direction."""
    cycle = forward + backward
    i = cycle.index(min(cycle))
    if i >= len(forward):
        cycle.reverse()
        i = len(cycle) - 1 - i
    return tuple(cycle[i:] + cycle[:i])


def trace_faces_disk(diagram: GeneralizedWiringDiagram) -> tuple[tuple[ArcId, ...], ...]:
    """All faces of the arrangement, infinity arcs included, each as the
    tuple of arc sides its boundary walks, sorted by (length, sides).

    Arcs are named as in :func:`wire_map`: (w, j) joins the j-th and
    (j + 1)-th events of wire w, and the wire's last arc closes through
    infinity, from its last event to its first.  Each face starts at its
    least arc, walked in its wire's direction, which is the face's least
    traversal state in the arrangement map.  One pass over the events
    keeps the arc on every track and, per band, the arcs of its open cell
    on the top and bottom tracks: O(sum of window lengths + n).
    """
    n = diagram.n
    windows = diagram.window_wires_table
    count = [0] * (n + 1)
    for window in windows:
        for w in window:
            count[w] += 1
    placed = [0] * (n + 1)
    # before its first event a wire sits on its closing arc
    track: list[ArcId] = [(0, 0)] + [(w, count[w] - 1) for w in range(1, n + 1)]
    # the open cell of band t has its arcs on track t in tops[t] and on
    # track t + 1 in bottoms[t]; heads[t] keeps the band's first cell
    tops = [[]] + [[track[t]] for t in range(1, n + 1)]
    bottoms = [[track[t + 1]] for t in range(n)] + [[]]
    heads: list = [None] * (n + 1)
    faces = []
    for move, window in zip(diagram.moves, windows):
        a = move.start
        b = p = a + len(window) - 1
        for w in window:  # the reversal puts the window's top wire at b
            j = placed[w]
            track[p] = (w, j)
            placed[w] = j + 1
            p -= 1
        bottoms[a - 1].append(track[a])
        tops[b].append(track[b])
        for t in range(a, b):
            if heads[t] is None:
                heads[t] = (tops[t], bottoms[t])
            else:
                faces.append(_sides(tops[t], bottoms[t][::-1]))
            tops[t] = [track[t]]
            bottoms[t] = [track[t + 1]]
    # the last cell of band t meets the first of band n - t at infinity,
    # where each closing arc is one side, not two
    for t in range(1, n):
        head_top, head_bottom = heads[n - t]
        faces.append(_sides(tops[t] + head_bottom[1:], head_top[::-1] + bottoms[t][-2::-1]))
    faces.append(_sides(bottoms[0] + tops[n][1:-1], []))
    if sum(map(len, faces)) != 2 * sum(count):
        raise QuasilineError("band cells do not cover every arc side exactly once")
    faces.sort()
    faces.sort(key=len)  # stable, so the order is by (length, sides)
    return tuple(faces)
