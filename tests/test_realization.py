import itertools
import random
import re
from dataclasses import replace

import pytest

from quasiline import (
    RealizationPlan,
    SequenceClass,
    classify,
    default_plan,
    is_lineal,
    realize,
    topological_unwanted_bound,
    unwanted_crossing_count,
)
from quasiline.errors import PlanMismatch, ValidationError
from quasiline.realization import _best_slot, _gathered
from quasiline.wiring import GeneralizedWiringDiagram, diagram_from_realization

from oracles import (
    anti_desargues,
    best_slot_by_scan,
    best_target_by_slots,
    cyclic,
    default_plan_by_slots,
    fano,
    mobius_kantor,
    pair_counts,
    pappus,
    random_structure,
    realize_by_slots,
    triangle,
    two_lines_three_points,
)


def numbered(plan, point):
    number = {l: i + 1 for i, l in enumerate(plan.line_numbering)}
    return [number[l] for l in plan.point_line_orders[point]]


def test_default_plan_triangle():
    c = triangle()
    plan = default_plan(c)
    assert len(plan.point_order) == 3
    assert all(len(plan.point_line_orders[p]) == 2 for p in c.points)


def test_default_plan_fano_windows_of_three():
    c = fano()
    plan = default_plan(c)
    assert len(plan.point_order) == 7
    assert all(len(plan.point_line_orders[p]) == 3 for p in c.points)
    # unprescribed orders default to increasing line number
    number = {l: i + 1 for i, l in enumerate(plan.line_numbering)}
    for p in c.points:
        nums = [number[l] for l in plan.point_line_orders[p]]
        assert nums == sorted(nums)


def test_realize_triangle_is_pseudoline_arrangement():
    c = triangle()
    r = realize(c, default_plan(c))
    assert len(r.seq.moves) == 3
    assert r.seq.designated_events() == (0, 1, 2)
    assert classify(r.seq) is SequenceClass.ALLOWABLE
    assert unwanted_crossing_count(r) == 0
    counts = pair_counts(r.seq)
    for pair in itertools.combinations(range(1, 4), 2):
        assert counts[frozenset(pair)] == 1


def test_realize_two_lines_three_points_default_plan():
    c = two_lines_three_points()
    r = realize(c, default_plan(c))
    assert classify(r.seq) is SequenceClass.GENERALIZED_ALLOWABLE
    designated = [r.seq.moves[i] for i in r.seq.designated_events()]
    assert len(designated) == 3
    assert all((m.start, m.length) == (1, 2) for m in designated)
    assert pair_counts(r.seq)[frozenset({1, 2})] == 5
    assert unwanted_crossing_count(r) == 2


def test_realize_two_lines_three_points_alternating_plan():
    c = two_lines_three_points()
    plan = RealizationPlan(
        ("A", "B"),
        ("p1", "p2", "p3"),
        {"p1": ("A", "B"), "p2": ("B", "A"), "p3": ("A", "B")},
    )
    r = realize(c, plan)
    assert [(m.start, m.length) for m in r.seq.moves] == [(1, 2)] * 3
    assert r.seq.designated_events() == (0, 1, 2)
    assert unwanted_crossing_count(r) == 0
    assert pair_counts(r.seq)[frozenset({1, 2})] == 3
    assert classify(r.seq) is SequenceClass.GENERALIZED_ALLOWABLE


def test_realize_fano_default_plan():
    c = fano()
    r = realize(c, default_plan(c))
    assert classify(r.seq) is not SequenceClass.PARTIAL
    assert len(r.seq.designated_events()) == 7
    counts = pair_counts(r.seq)
    for pair in itertools.combinations(range(1, 8), 2):
        assert counts[frozenset(pair)] % 2 == 1


def test_designated_window_matches_prescribed_order():
    rng = random.Random(41)
    for _ in range(40):
        c = random_structure(rng)
        plan = default_plan(c)
        r = realize(c, plan)
        number = {l: i + 1 for i, l in enumerate(plan.line_numbering)}
        for idx, point in r.point_of_move.items():
            expected = [number[l] for l in plan.point_line_orders[point]]
            assert list(r.seq.window_wires_table[idx - 1]) == expected


def test_realize_random_structures_generalized():
    rng = random.Random(43)
    for _ in range(60):
        c = random_structure(rng)
        r = realize(c, default_plan(c))
        assert classify(r.seq) is not SequenceClass.PARTIAL
        assert len(r.seq.designated_events()) == len(c.points)
        # bridging moves are adjacent transpositions, never designated
        for m in r.seq.moves:
            if m.point is None:
                assert m.length == 2


def test_wanted_pair_accounting_lineal():
    rng = random.Random(47)
    found = 0
    while found < 15:
        c = random_structure(rng, max_points=7, max_lines=6)
        if not is_lineal(c):
            continue
        found += 1
        plan = default_plan(c)
        r = realize(c, plan)
        number = {l: i + 1 for i, l in enumerate(plan.line_numbering)}
        counts = pair_counts(r.seq)
        for p in c.points:
            for l1, l2 in itertools.combinations(c.lines_of(p), 2):
                pair = frozenset({number[l1], number[l2]})
                assert counts[pair] % 2 == 1


def test_realize_deterministic():
    c = fano()
    r1 = realize(c, default_plan(c))
    r2 = realize(c, default_plan(c))
    assert r1 == r2


def test_realization_holds_its_wiring_diagram():
    """``realize`` builds the diagram once, and ``diagram_from_realization``
    hands back that object instead of replaying the moves again."""
    for c in (triangle(), two_lines_three_points(), fano(), mobius_kantor()):
        r = realize(c, default_plan(c))
        assert type(r.seq) is GeneralizedWiringDiagram
        assert diagram_from_realization(r) is r.seq


LINES_UNCOVERED = "plan line numbering does not cover the structure's lines"
POINTS_UNCOVERED = "plan point order does not cover the structure's points"
ORDER_AT_A = "line order at point 'a' does not match its incidences"


@pytest.mark.parametrize(
    "field, labels, message",
    [
        ("line_numbering", ("ab", "ab", "ca"), LINES_UNCOVERED),
        ("line_numbering", ("ab", "bc", "ca", "ab"), LINES_UNCOVERED),
        ("point_order", ("a", "a", "c"), POINTS_UNCOVERED),
        ("point_order", ("a", "b", "c", "a"), POINTS_UNCOVERED),
        ("point_line_orders", ("ab", "ab"), ORDER_AT_A),
        ("point_line_orders", ("ab", "ca", "ab"), ORDER_AT_A),
    ],
    ids=["line replaced", "line added", "point replaced", "point added", "line at a point replaced",
         "line at a point added"],
)
def test_plan_refuses_a_repeated_label(field, labels, message):
    """A repeat is refused whether it takes the place of a label or comes
    on top of them all."""
    c = triangle()
    plan = default_plan(c)
    if field == "point_line_orders":
        labels = {**plan.point_line_orders, "a": labels}
    with pytest.raises(PlanMismatch, match=f"^{re.escape(message)}$"):
        realize(c, replace(plan, **{field: labels}))


def test_plan_validation():
    c = triangle()
    plan = default_plan(c)
    bad = RealizationPlan(plan.line_numbering, plan.point_order[:-1], plan.point_line_orders)
    with pytest.raises(PlanMismatch):
        realize(c, bad)
    bad2 = RealizationPlan(
        plan.line_numbering,
        plan.point_order,
        {**plan.point_line_orders, "a": ("ab",)},
    )
    with pytest.raises(PlanMismatch):
        realize(c, bad2)
    with pytest.raises(PlanMismatch, match="'zz'"):
        realize(c, RealizationPlan(plan.line_numbering, plan.point_order, {**plan.point_line_orders, "zz": ("ab",)}))


def test_unwanted_crossing_identity_fano():
    c = fano()
    r = realize(c, default_plan(c))
    counts = pair_counts(r.seq)
    total_pairs = sum(
        counts[frozenset(p)] for p in itertools.combinations(range(1, 8), 2)
    )
    assert unwanted_crossing_count(r) == total_pairs - 7 * 3


def test_topological_unwanted_bound():
    assert topological_unwanted_bound(9, 3) == 9
    assert topological_unwanted_bound(7, 3) == 0
    for n in range(2, 10):
        assert topological_unwanted_bound(n, 2) == n * (n - 1) // 2 - n
    with pytest.raises(ValidationError):
        topological_unwanted_bound(2, 3)


def positions(cur):
    """The position table of a permutation of 1..n: pos[x] is where x is."""
    pos = [0] * (len(cur) + 1)
    for i, x in enumerate(cur):
        pos[x] = i
    return pos


def test_best_slot_matches_slot_oracle():
    rng = random.Random(53)
    for trial in range(2400):
        n = rng.randint(1, 14)
        cur = rng.sample(range(1, n + 1), n)
        # a quarter of the pairs take all of cur (empty rest), a quarter one entry
        k = (n, 1, rng.randint(1, n), rng.randint(1, n))[trial % 4]
        content = rng.sample(cur, k)
        cost, slot = _best_slot(positions(cur), content)
        assert 0 <= slot <= n - k
        assert (_gathered(cur, content, slot), cost) == best_target_by_slots(cur, content)


def test_best_slot_matches_scan_oracle():
    """The slot read from the content's positions is the one the pass over
    the whole permutation prices cheapest, at the same cost."""
    rng = random.Random(61)
    for trial in range(20000):
        n = rng.randint(1, 40)
        cur = rng.sample(range(1, n + 1), n)
        k = (n, 1, 2, rng.randint(1, min(n, 6)), rng.randint(1, n))[trial % 5]
        content = rng.sample(cur, min(k, n))
        assert _best_slot(positions(cur), content) == best_slot_by_scan(cur, content)


def test_plan_and_realize_match_slot_oracle():
    rng = random.Random(59)
    structures = [fano(), pappus(), mobius_kantor(), anti_desargues()]
    structures += [cyclic(n) for n in range(8, 25)]
    structures += [random_structure(rng) for _ in range(120)]
    for c in structures:
        plan = default_plan(c)
        assert plan == default_plan_by_slots(c)
        assert realize(c, plan) == realize_by_slots(c, plan)
