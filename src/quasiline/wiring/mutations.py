"""Local moves on wiring diagrams: digon creation/removal and triangle moves.

A digon insertion lets one wire cross an adjacent wire and immediately
cross back; removal is the inverse, allowed only for a pair of crossings
of the same two wires bounding an empty face.  A triangle move slides a
wire across the crossing of two others (the braid relation).  Moves are
admissible only when no designated crossing is disturbed, so they never
change the incidence structure carried by the diagram, nor its surface
map.

Sites are found in one pass over the diagram's event tables, without
pairwise or triple scans, and without a set or range per event.  A
digon's partner is the next event on either wire of its left crossing,
read from a partner table built from the consecutive pairs of the
per-wire event lists; it crosses the same pair exactly when its window
is the left crossing's reversed.  Triangle sites come from band lists:
per three-track band, the events meeting it in order, each event
appended to the slice of bands its clamped window bounds select, and a
site is three consecutive entries in braid position, found in one scan
of each band.
"""

from __future__ import annotations

from typing import Iterator

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


def _next_on_wires(diagram: GeneralizedWiringDiagram) -> list[int]:
    """Per event, the first later event on any of its wires, or the event
    count when there is none."""
    m = diagram.event_count
    nxt = [m] * m
    for events in diagram.wire_event_table.values():
        for i, j in zip(events, events[1:]):
            if j < nxt[i]:
                nxt[i] = j
    return nxt


def removable_digons(diagram: GeneralizedWiringDiagram) -> Iterator[tuple[int, int]]:
    """Pairs (i, j) of event indices that bound a removable digon: two
    crossings of the same wire pair, both regular and non-designated,
    with no other event on either wire between them.

    Nothing touches either wire between i and j, so when j crosses the
    same pair its window reads the window of i reversed."""
    nxt = _next_on_wires(diagram)
    moves, windows = diagram.moves, diagram.window_wires_table
    for i, ev in enumerate(moves):
        if ev.length != 2 or ev.point is not None:
            continue
        j = nxt[i]
        if j == len(moves):
            continue
        other = moves[j]
        if other.length == 2 and other.point is None and windows[j] == windows[i][::-1]:
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
    partner = _next_on_wires(diagram)[at]
    if partner == diagram.event_count or set(diagram.window_wires(partner)) != set(
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

    One pass over the moves builds, per band b = 1..n-2, the list of the
    events whose window meets tracks b..b+2, in order.  A triple is a
    site exactly when it is three consecutive entries of one band list,
    all regular and non-designated, where i and k start at one track t of
    {b, b+1} and j at the other: any other band event in (i, k) would
    interfere.  The band is fixed by the starts of i and j, so no site is
    listed twice.
    """
    moves = diagram.moves
    bands: list[list[int]] = [[] for _ in range(diagram.n - 1)]
    # the start of every regular non-designated event, 0 for the others
    free = []
    for idx, ev in enumerate(moves):
        t = ev.start
        # the bands max(1, t - 2) .. min(n - 2, ev.stop)
        for band in bands[t - 2 if t > 2 else 1 : t + ev.length]:
            band.append(idx)
        free.append(t if ev.length == 2 and ev.point is None else 0)
    sites = []
    for b, band in enumerate(bands):
        for i, j, k in zip(band, band[1:], band[2:]):
            t = free[i]
            if free[k] == t and free[j] == 2 * b + 1 - t and (t == b or t == b + 1):
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
