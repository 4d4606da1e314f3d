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
over the events (``_band_cells``), and straighten reads its crossing
graph's faces, its outer walk and the arrangement's digons off the same
pass.  Nothing here builds a rotation map: the one builder, of the
surface map of the designated crossings, is
:func:`quasiline.surface.scheme_from_realization`.
"""

from __future__ import annotations

from .diagram import GeneralizedWiringDiagram


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
