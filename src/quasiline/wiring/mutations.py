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
read from the diagram's partner table
(:attr:`GeneralizedWiringDiagram.next_on_wires`), built once per
diagram and shared by :func:`removable_digons` and :func:`remove_digon`;
it crosses the same pair exactly when its window is the left crossing's
reversed.  Triangle sites come from one pass over the events that keeps
each track's last event, and so each three-track band's: a site is three
consecutive events of one band in braid position, found when its third
event arrives from the middle event's own last band predecessor, with no
band lists.  An inserted digon's wires are located in
:meth:`~quasiline.sequences.PermSequence.permutation_before` its slot,
which reads the cached windows of the prefix.
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
    swap = Move(min(pa, pb) + 1, 2)
    moves = diagram.moves
    return GeneralizedWiringDiagram(diagram.n, (*moves[:at], swap, swap, *moves[at:]))


def removable_digons(diagram: GeneralizedWiringDiagram) -> Iterator[tuple[int, int]]:
    """Pairs (i, j) of event indices that bound a removable digon: two
    crossings of the same wire pair, both regular and non-designated,
    with no other event on either wire between them.

    Nothing touches either wire between i and j, so when j crosses the
    same pair its window reads the window of i reversed."""
    nxt = diagram.next_on_wires
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
    partner = diagram.next_on_wires[at]
    windows = diagram.window_wires_table
    # as in removable_digons: a partner crossing the same pair reads the
    # window reversed, and is then regular too
    if partner == diagram.event_count or windows[partner] != windows[at][::-1]:
        raise NoSuchFace(f"event {at} does not bound an empty digon")
    other = diagram.moves[partner]
    if other.point is not None:
        raise NotAdmissible(f"event {partner} is designated ({other.point!r})")
    moves = diagram.moves
    return GeneralizedWiringDiagram(
        diagram.n, moves[:at] + moves[at + 1 : partner] + moves[partner + 1 :]
    )


def triangle_moves(diagram: GeneralizedWiringDiagram) -> Iterator[tuple[int, int, int]]:
    """Admissible triangle-move sites: index triples i < j < k of regular
    non-designated crossings in braid position with no interfering event,
    in increasing order.

    A triple is a site exactly when, in the band b = min of its starts
    (tracks b..b+2), j is the last event meeting the band before k and i
    the last before j, all three regular and non-designated, where i and
    k start at one track t of {b, b+1} and j at the other: any other band
    event in (i, k) would interfere.  One pass over the moves keeps, per
    track, the last event covering it, so the last event meeting a band
    is the latest of its three tracks'.  Each regular non-designated
    event records its last predecessor in the band below its start
    (``low``) and in the band at its start (``high``); an event k at
    track t then ends a site of band t - 1 with j = its ``low`` and
    i = j's ``high``, or of band t with j = its ``high`` and i = j's
    ``low``.  The band is fixed by the starts of i and j, so no site is
    listed twice.
    """
    moves = diagram.moves
    m = len(moves)
    # -1 is "no event": it indexes entry m of these lists, whose start 0
    # and links m fail every test below
    free = [0] * (m + 1)  # the start of every regular non-designated event
    low, high = [m] * (m + 1), [m] * (m + 1)
    cover = [-1] * (diagram.n + 3)  # per track 0..n+2, the last event on it
    sites = []
    for k, ev in enumerate(moves):
        t = ev.start
        if ev.length != 2:
            cover[t : t + ev.length] = [k] * ev.length
            continue
        if ev.point is None:
            free[k] = t
            a, b = cover[t], cover[t + 1]
            mid = a if a > b else b
            c = cover[t - 1]
            j = low[k] = mid if mid > c else c
            if free[j] == t - 1 and free[high[j]] == t:
                sites.append((high[j], j, k))
            c = cover[t + 2]
            j = high[k] = mid if mid > c else c
            if free[j] == t + 1 and free[low[j]] == t:
                sites.append((low[j], j, k))
        cover[t] = cover[t + 1] = k
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
    lo = min(t, u)  # the band is tracks lo..lo + 2
    for m in range(i + 1, k):
        if m == j:
            continue
        ev = diagram.moves[m]
        if ev.start <= lo + 2 and ev.start + ev.length > lo:
            raise NoSuchFace(
                f"event {m} interferes with the triangle across tracks {lo}..{lo + 2}"
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
    moves[i] = moves[k] = Move(u, 2)
    moves[j] = Move(t, 2)
    return GeneralizedWiringDiagram(diagram.n, tuple(moves))
