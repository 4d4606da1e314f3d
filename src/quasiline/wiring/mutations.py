"""Local moves on wiring diagrams: digon creation/removal and triangle moves.

A digon insertion lets one wire cross an adjacent wire and immediately
cross back; removal is the inverse, allowed only for a pair of crossings
of the same two wires bounding an empty face.  A triangle move slides a
wire across the crossing of two others (the braid relation).  Moves are
admissible only when no designated crossing is disturbed, so they never
change the incidence structure carried by the diagram, nor its surface
map.
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


def removable_digons(diagram: GeneralizedWiringDiagram) -> Iterator[tuple[int, int]]:
    """Pairs (i, j) of event indices that bound a removable digon: two
    crossings of the same wire pair, both regular and non-designated,
    with no other event on either wire between them."""
    for i, ev in enumerate(diagram.moves):
        if ev.length != 2 or ev.point is not None:
            continue
        pair = set(diagram.window_wires(i))
        for j in range(i + 1, diagram.event_count):
            other = diagram.moves[j]
            touched = set(diagram.window_wires(j))
            if touched & pair:
                if (
                    touched == pair
                    and other.length == 2
                    and other.point is None
                ):
                    yield (i, j)
                break


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
    pair = set(diagram.window_wires(at))
    partner = None
    for j in range(at + 1, diagram.event_count):
        touched = set(diagram.window_wires(j))
        if touched & pair:
            partner = j
            break
    if partner is None or set(diagram.window_wires(partner)) != pair:
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
    non-designated crossings in braid position with no interfering event."""
    for i in range(diagram.event_count):
        for j in range(i + 1, diagram.event_count):
            for k in range(j + 1, diagram.event_count):
                try:
                    _check_triangle(diagram, (i, j, k))
                except (NoSuchFace, NotAdmissible):
                    continue
                yield (i, j, k)


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
