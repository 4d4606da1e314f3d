"""Local moves on wiring diagrams: digon creation/removal and triangle moves.

A digon insertion lets one wire cross an adjacent wire and immediately
cross back; removal is the inverse, allowed only for a pair of crossings
of the same two wires bounding an empty face.  A triangle move slides a
wire across the crossing of two others (the braid relation).  Moves are
admissible only when no designated crossing is disturbed, so they never
change the incidence structure carried by the diagram, nor its surface
map.

Sites are found without pairwise or triple scans.  A digon's partner is
the next event on either wire of its left crossing, read from the
per-wire event lists.  Triangle sites come from a braid scan: per
regular event and neighbouring track, the next two events touching the
three-track band are the only candidates, found by bisection in
per-track event lists.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

from ..errors import NoSuchFace, NotAdmissible
from ..sequences import Move
from .diagram import GeneralizedWiringDiagram


def insert_digon(
    diagram: GeneralizedWiringDiagram, pair: tuple[int, int], at: int
) -> GeneralizedWiringDiagram:
    """Insert a cross-and-cross-back of two wires before event slot ``at``.

    The two wires must occupy adjacent tracks at that slot.  The two new
    events are non-designated, so insertion is always admissible.
    """
    a, b = pair
    if not 0 <= at <= diagram.event_count:
        raise NoSuchFace(f"slot {at} not in [0, {diagram.event_count}]")
    if a == b or not (1 <= a <= diagram.n and 1 <= b <= diagram.n):
        raise NoSuchFace(f"{pair} is not a pair of distinct wires")
    perm = diagram.permutation_before(at)
    pa, pb = perm.index(a), perm.index(b)
    if abs(pa - pb) != 1:
        raise NoSuchFace(
            f"wires {a} and {b} are not adjacent at slot {at} "
            f"(tracks {pa + 1} and {pb + 1})"
        )
    start = min(pa, pb) + 1
    moves = list(diagram.moves)
    moves[at:at] = [Move(start, 2), Move(start, 2)]
    return GeneralizedWiringDiagram(diagram.n, tuple(moves))


def _next_after(event_lists: Iterable[Sequence[int]], after: int) -> int | None:
    """The least event index greater than ``after`` in any of the sorted
    lists, or None."""
    later = []
    for events in event_lists:
        b = bisect_right(events, after)
        if b < len(events):
            later.append(events[b])
    return min(later, default=None)


def _next_on_wires(diagram: GeneralizedWiringDiagram, i: int) -> int | None:
    """The first event after ``i`` on either wire of event ``i``."""
    return _next_after(map(diagram.wire_events, diagram.window_wires(i)), i)


def removable_digons(diagram: GeneralizedWiringDiagram) -> Iterator[tuple[int, int]]:
    """Pairs (i, j) of event indices that bound a removable digon: two
    crossings of the same wire pair, both regular and non-designated,
    with no other event on either wire between them."""
    for i, ev in enumerate(diagram.moves):
        if ev.length != 2 or ev.point is not None:
            continue
        j = _next_on_wires(diagram, i)
        if j is None:
            continue
        other = diagram.moves[j]
        if other.length == 2 and other.point is None and set(
            diagram.window_wires(j)
        ) == set(diagram.window_wires(i)):
            yield (i, j)


def remove_digon(diagram: GeneralizedWiringDiagram, at: int) -> GeneralizedWiringDiagram:
    """Remove the digon whose left crossing is event ``at``.

    The partner is the next event meeting either of the two wires; it
    must cross exactly the same pair.  Designated crossings are never
    removed.
    """
    if not 0 <= at < diagram.event_count:
        raise NoSuchFace(f"no event at index {at}")
    ev = diagram.moves[at]
    if ev.length != 2:
        raise NoSuchFace(f"event {at} is a singular crossing, not a digon side")
    if ev.point is not None:
        raise NotAdmissible(f"event {at} is designated ({ev.point!r})")
    partner = _next_on_wires(diagram, at)
    if partner is None or set(diagram.window_wires(partner)) != set(
        diagram.window_wires(at)
    ):
        raise NoSuchFace(f"event {at} does not bound an empty digon")
    other = diagram.moves[partner]
    if other.length != 2:
        raise NoSuchFace(f"event {at} does not bound an empty digon")
    if other.point is not None:
        raise NotAdmissible(f"event {partner} is designated ({other.point!r})")
    moves = tuple(m for k, m in enumerate(diagram.moves) if k not in (at, partner))
    return GeneralizedWiringDiagram(diagram.n, moves)


def triangle_moves(diagram: GeneralizedWiringDiagram) -> Iterator[tuple[int, int, int]]:
    """Admissible triangle-move sites: index triples i < j < k of regular
    non-designated crossings in braid position with no interfering event,
    in increasing order.

    A braid scan: for each regular non-designated event i starting at
    track t and each u in {t-1, t+1}, j is the first later event touching
    the band of tracks min(t, u)..min(t, u)+2 and k the first event after
    j touching it.  Any other event in (i, k) touching the band would
    interfere, so (i, j, k) is the only candidate for (i, u).  It is a
    site when j and k are regular and non-designated, j starts at u and
    k starts at t.
    """
    moves = diagram.moves
    touching: list[list[int]] = [[] for _ in range(diagram.n + 1)]
    for idx, ev in enumerate(moves):
        for pos in range(ev.start, ev.stop + 1):
            touching[pos].append(idx)

    def free_at(idx: int | None, track: int) -> bool:
        if idx is None:
            return False
        ev = moves[idx]
        return ev.start == track and ev.length == 2 and ev.point is None

    for i, ev in enumerate(moves):
        if ev.length != 2 or ev.point is not None:
            continue
        t = ev.start
        sites = []
        for u in (t - 1, t + 1):
            band = touching[min(t, u) : min(t, u) + 3]
            j = _next_after(band, i)
            if free_at(j, u):
                k = _next_after(band, j)
                if free_at(k, t):
                    sites.append((i, j, k))
        yield from sorted(sites)


def _check_triangle(
    diagram: GeneralizedWiringDiagram, triple: tuple[int, int, int]
) -> tuple[int, int]:
    i, j, k = sorted(triple)
    if len({i, j, k}) != 3 or not 0 <= i or k >= diagram.event_count:
        raise NoSuchFace(f"{triple} is not a triple of distinct event indices")
    e1, e2, e3 = diagram.moves[i], diagram.moves[j], diagram.moves[k]
    for idx, ev in ((i, e1), (j, e2), (k, e3)):
        if ev.length != 2:
            raise NoSuchFace(f"event {idx} is singular; triangle moves need regular crossings")
    t, u = e1.start, e2.start
    if e3.start != t or abs(u - t) != 1:
        raise NoSuchFace(f"events {triple} are not in braid position")
    band = range(min(t, u), min(t, u) + 3)
    for m in range(i + 1, k):
        if m == j:
            continue
        ev = diagram.moves[m]
        if any(pos in band for pos in range(ev.start, ev.stop + 1)):
            raise NoSuchFace(
                f"event {m} interferes with the triangle across tracks "
                f"{band.start}..{band.stop - 1}"
            )
    for idx, ev in ((i, e1), (j, e2), (k, e3)):
        if ev.point is not None:
            raise NotAdmissible(f"crossing {idx} is designated ({ev.point!r})")
    return t, u


def apply_triangle_move(
    diagram: GeneralizedWiringDiagram, triple: tuple[int, int, int]
) -> GeneralizedWiringDiagram:
    """Slide the middle wire across the opposite crossing: rewrite the
    braid pattern (t, u, t) at the three events to (u, t, u)."""
    t, u = _check_triangle(diagram, triple)
    i, j, k = sorted(triple)
    moves = list(diagram.moves)
    moves[i] = Move(u, 2)
    moves[j] = Move(t, 2)
    moves[k] = Move(u, 2)
    return GeneralizedWiringDiagram(diagram.n, tuple(moves))
