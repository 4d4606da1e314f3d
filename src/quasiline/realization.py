"""Realize incidence structures as generalized allowable sequences.

Every combinatorial incidence structure can be realized so that each
point becomes one designated window reversal whose content lists the
point's incident lines in a prescribed order.  Lines are numbered 1..n;
between consecutive designated reversals the current permutation is
bridged to the next required one by adjacent transpositions (bubble-sort
style), and the sequence finishes at the full reversal.  Bridging
transpositions are exactly the unwanted crossings of the realization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import PlanMismatch
from .incidence import IncidenceStructure, Label
from .sequences import Move, PermSequence


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
    point, labelled with that point."""

    seq: PermSequence
    line_numbering: tuple[Label, ...]

    @property
    def point_of_move(self) -> dict[int, Label]:
        """The point of each designated move, by 1-based move index."""
        return {i + 1: self.seq.moves[i].point for i in self.seq.designated_events()}


def _kendall_tau(p: list[int], q: list[int]) -> int:
    pos = {x: i for i, x in enumerate(q)}
    count = 0
    for i, j in itertools.combinations(range(len(p)), 2):
        if pos[p[i]] > pos[p[j]]:
            count += 1
    return count


def _best_target(cur: list[int], content: list[int]) -> list[int]:
    """Permutation with ``content`` consecutive, nearest to ``cur`` in
    adjacent-transposition distance; leftmost placement breaks ties."""
    rest = [x for x in cur if x not in set(content)]
    best: Optional[list[int]] = None
    best_cost = -1
    for t in range(len(rest) + 1):
        target = rest[:t] + content + rest[t:]
        cost = _kendall_tau(cur, target)
        if best is None or cost < best_cost:
            best, best_cost = target, cost
    assert best is not None
    return best


def _bridge(cur: list[int], target: list[int]) -> list[Move]:
    """Adjacent transpositions rewriting ``cur`` into ``target`` in place.

    Stable selection toward the target: entry j of the target is bubbled
    leftward into place, emitting one length-2 move per swap.
    """
    moves: list[Move] = []
    for j in range(len(target)):
        q = cur.index(target[j])
        while q > j:
            cur[q - 1], cur[q] = cur[q], cur[q - 1]
            moves.append(Move(q, 2))
            q -= 1
    return moves


def _gather_cost(cur: list[int], content: list[int]) -> int:
    return _kendall_tau(cur, _best_target(cur, content))


def _numbered_window(
    structure: IncidenceStructure, plan: RealizationPlan, point: Label
) -> list[int]:
    number = {l: i + 1 for i, l in enumerate(plan.line_numbering)}
    return [number[l] for l in plan.point_line_orders[point]]


def default_plan(structure: IncidenceStructure) -> RealizationPlan:
    """Deterministic plan: lines numbered by declaration order, each
    point's window in increasing line number, and points scheduled
    greedily so that the next point needs the fewest bridging
    transpositions from the current permutation (declaration order breaks
    ties)."""
    numbering = tuple(structure.lines)
    number = {l: i + 1 for i, l in enumerate(numbering)}
    orders = {
        p: tuple(sorted(structure.lines_of(p), key=lambda l: number[l]))
        for p in structure.points
    }
    remaining = list(structure.points)
    cur = list(range(1, len(numbering) + 1))
    schedule: list[Label] = []
    while remaining:
        costs = [
            (_gather_cost(cur, [number[l] for l in orders[p]]), i)
            for i, p in enumerate(remaining)
        ]
        _, pick = min(costs)
        point = remaining.pop(pick)
        schedule.append(point)
        content = [number[l] for l in orders[point]]
        target = _best_target(cur, content)
        cur = target
        start = cur.index(content[0])
        cur[start : start + len(content)] = content[::-1]
    return RealizationPlan(numbering, tuple(schedule), orders)


def validate_plan(structure: IncidenceStructure, plan: RealizationPlan) -> None:
    if sorted(map(str, plan.line_numbering)) != sorted(map(str, structure.lines)) or set(
        plan.line_numbering
    ) != set(structure.lines):
        raise PlanMismatch("plan line numbering does not cover the structure's lines")
    if set(plan.point_order) != set(structure.points) or len(plan.point_order) != len(
        structure.points
    ):
        raise PlanMismatch("plan point order does not cover the structure's points")
    for p in structure.points:
        prescribed = plan.point_line_orders.get(p)
        if prescribed is None or set(prescribed) != set(structure.lines_of(p)) or len(
            prescribed
        ) != len(structure.lines_of(p)):
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
    cur = list(range(1, n + 1))
    moves: list[Move] = []
    for point in plan.point_order:
        content = _numbered_window(structure, plan, point)
        target = _best_target(cur, content)
        moves.extend(_bridge(cur, target))
        start = cur.index(content[0]) + 1
        moves.append(Move(start, len(content), point))
        a, b = start - 1, start - 1 + len(content)
        cur[a:b] = cur[a:b][::-1]
    moves.extend(_bridge(cur, list(range(n, 0, -1))))
    return Realization(PermSequence(n, tuple(moves)), plan.line_numbering)


def unwanted_crossing_count(realization: Realization) -> int:
    """Total local crossing number carried by non-designated moves."""
    return sum(math.comb(m.length, 2) for m in realization.seq.moves if m.point is None)


def topological_unwanted_bound(n: int, k: int) -> int:
    """Unwanted crossing count of a topological (n_k) configuration in
    which all unwanted crossings are regular: C(n,2) - n*C(k,2)."""
    if not n >= k >= 2:
        raise ValueError(f"need n >= k >= 2, got ({n}, {k})")
    return math.comb(n, 2) - n * math.comb(k, 2)
