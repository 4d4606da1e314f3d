"""Realize incidence structures as generalized allowable sequences.

Every combinatorial incidence structure can be realized so that each
point becomes one designated window reversal whose content lists the
point's incident lines in a prescribed order.  Lines are numbered 1..n;
between consecutive designated reversals the current permutation is
bridged to the next required one by adjacent transpositions (bubble-sort
style), and the sequence finishes at the full reversal.  Bridging
transpositions are exactly the unwanted crossings of the realization.
The sequence is built once, as the realization's wiring diagram.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping

from .errors import PlanMismatch, ValidationError
from .incidence import IncidenceStructure, Label
from .sequences import Move
from .wiring.diagram import GeneralizedWiringDiagram


@dataclass(frozen=True)
class RealizationPlan:
    """Choices that make a realization deterministic.

    ``line_numbering`` lists the line ids in number order (position i
    holds line number i+1); ``point_order`` schedules the designated
    reversals; ``point_line_orders`` prescribes, per point, the top-to-
    bottom order in which its incident lines enter the reversal window.
    """

    line_numbering: tuple[Label, ...]
    point_order: tuple[Label, ...]
    point_line_orders: Mapping[Label, tuple[Label, ...]]


@dataclass(frozen=True)
class Realization:
    """A generalized allowable sequence with one designated move per
    point, labelled with that point.  ``seq`` is the realization's wiring
    diagram, built once by :func:`realize`."""

    seq: GeneralizedWiringDiagram
    line_numbering: tuple[Label, ...]

    @property
    def point_of_move(self) -> dict[int, Label]:
        """The point of each designated move, by 1-based move index."""
        return {i + 1: self.seq.moves[i].point for i in self.seq.designated_events()}


def _best_slot(pos: list[int], content: list[int]) -> tuple[int, int]:
    """Cheapest way to make ``content`` consecutive, as ``(cost, slot)``.

    ``pos[x]`` is the position of line x in the current permutation
    ``cur``.  The candidates are ``rest[:t] + content + rest[t:]``, where
    ``rest`` is ``cur`` without the content, and the cost is the adjacent-
    transposition (Kendall tau) distance from ``cur``.  With ``k`` content
    entries, ``inv`` the content's inversions relative to ``cur`` and
    ``a_i`` the number of content entries before ``rest[i]`` in ``cur``,
    slot t costs ``inv + sum(a_i for i < t) + sum(k - a_i for i >= t)``.
    From slot i to slot i+1 the cost changes by ``2*a_i - k``, which never
    falls as i grows, so the leftmost cheapest slot puts the content just
    before its m-th entry in position order, m = ceil(k/2): with ``ps``
    the sorted content positions, slot ``ps[m-1] - (m-1)``.  The rest
    entries between ``ps[g-1]`` and ``ps[g]`` have ``a_i = g``, so that
    slot costs ``inv`` plus, per such entry, g if g < m and k - g if not.
    """
    k, m = len(content), (len(content) + 1) // 2
    ps: list[int] = []  # positions of the content entries passed, sorted
    inv = 0
    for x in content:
        p = pos[x]
        inv += len(ps) - bisect.bisect(ps, p)
        bisect.insort(ps, p)
    cost, prev = inv, -1
    for g, p in enumerate(ps):
        cost += (p - prev - 1) * (g if g < m else k - g)
        prev = p
    return cost, ps[m - 1] - (m - 1)


def _gathered(cur: list[int], content: list[int], slot: int) -> list[int]:
    """``cur`` with ``content``, in the given order, moved to ``slot``."""
    members = set(content)
    rest = [x for x in cur if x not in members]
    return rest[:slot] + content + rest[slot:]


def _bridge(
    cur: list[int], pos: list[int], target: list[int], swaps: list[Move]
) -> list[Move]:
    """Adjacent transpositions rewriting ``cur`` into ``target`` in place.

    Stable selection toward the target: entry j of the target is bubbled
    leftward into place, emitting one length-2 move per swap, the shared
    ``swaps[q]`` = Move(q, 2) for a swap at position q.  The position
    table ``pos`` of ``cur`` finds each entry and is updated per swap.
    """
    moves: list[Move] = []
    for j, x in enumerate(target):
        q = pos[x]
        while q > j:
            y = cur[q - 1]
            cur[q] = y
            pos[y] = q
            moves.append(swaps[q])
            q -= 1
        cur[q] = x
        pos[x] = q
    return moves


def default_plan(structure: IncidenceStructure) -> RealizationPlan:
    """Deterministic plan: lines numbered by declaration order, each
    point's window in increasing line number, and points scheduled
    greedily so that the next point needs the fewest bridging
    transpositions from the current permutation (declaration order breaks
    ties).

    A point's bridging cost is that of its cheapest insertion slot, the
    leftmost on ties.  :func:`_best_slot` finds that slot and its cost
    from the content's positions alone, read from one position table
    rebuilt per step, so each step costs O(n) plus O(k log k) per
    remaining point of k lines.
    """
    numbering = structure.lines
    offset = len(structure.points) - 1  # vertex offset + x is line number x
    contents = [[j - offset for j in ns] for ns in structure.levi.neighbours[: offset + 1]]
    remaining = list(range(len(contents)))
    cur = list(range(1, len(numbering) + 1))
    pos = [0, *range(len(numbering))]  # pos[x]: where line x is in cur
    schedule: list[Label] = []
    while remaining:
        priced = [_best_slot(pos, contents[i]) for i in remaining]
        pick = min(range(len(priced)), key=lambda i: priced[i][0])
        point = remaining.pop(pick)
        schedule.append(structure.points[point])
        cur = _gathered(cur, contents[point][::-1], priced[pick][1])
        for i, x in enumerate(cur):
            pos[x] = i
    orders = {p: structure.lines_of(p) for p in structure.points}
    return RealizationPlan(numbering, tuple(schedule), orders)


def validate_plan(structure: IncidenceStructure, plan: RealizationPlan) -> None:
    """Each field must list its labels exactly once.  A structure's labels
    are distinct, so a field of their count holding their set is such a
    list, and a repeat or a gap is refused alike."""

    def lists(field, labels) -> bool:
        return len(field) == len(labels) and set(field) == set(labels)

    if not lists(plan.line_numbering, structure.lines):
        raise PlanMismatch("plan line numbering does not cover the structure's lines")
    if not lists(plan.point_order, structure.points):
        raise PlanMismatch("plan point order does not cover the structure's points")
    unknown = set(plan.point_line_orders) - set(structure.points)
    if unknown:
        raise PlanMismatch(f"plan gives a line order at {min(unknown, key=str)!r}, which is not a point")
    for p in structure.points:
        if not lists(plan.point_line_orders.get(p, ()), structure.lines_of(p)):
            raise PlanMismatch(f"line order at point {p!r} does not match its incidences")


def realize(structure: IncidenceStructure, plan: RealizationPlan) -> Realization:
    """Construct the realization prescribed by ``plan``.

    The result classifies as generalized allowable, carries exactly one
    designated move per point whose window reads the prescribed line
    order top to bottom immediately before the reversal, and uses only
    length-2 non-designated bridging moves.
    """
    validate_plan(structure, plan)
    n = len(plan.line_numbering)
    number = {l: i + 1 for i, l in enumerate(plan.line_numbering)}
    cur = list(range(1, n + 1))
    pos = [0, *range(n)]  # pos[x]: where line x is in cur
    swaps = [None, *(Move(q, 2) for q in range(1, n))]  # one move per swap position
    moves: list[Move] = []
    for point in plan.point_order:
        content = [number[l] for l in plan.point_line_orders[point]]
        _, slot = _best_slot(pos, content)
        moves.extend(_bridge(cur, pos, _gathered(cur, content, slot), swaps))
        moves.append(Move(slot + 1, len(content), point))
        for i, x in enumerate(reversed(content), slot):
            cur[i], pos[x] = x, i
    moves.extend(_bridge(cur, pos, list(range(n, 0, -1)), swaps))
    return Realization(GeneralizedWiringDiagram(n, tuple(moves)), plan.line_numbering)


def unwanted_crossing_count(realization: Realization) -> int:
    """Total local crossing number carried by non-designated moves."""
    return sum(math.comb(m.length, 2) for m in realization.seq.moves if m.point is None)


def topological_unwanted_bound(n: int, k: int) -> int:
    """Unwanted crossing count of a topological (n_k) configuration in
    which all unwanted crossings are regular: C(n,2) - n*C(k,2)."""
    if not n >= k >= 2:
        raise ValidationError(f"need n >= k >= 2, got ({n}, {k})")
    return math.comb(n, 2) - n * math.comb(k, 2)
