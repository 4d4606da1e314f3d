import itertools
import json
import math
import random
from collections import Counter

import pytest

from quasiline import (
    Move,
    PermSequence,
    SequenceClass,
    are_swap_equivalent,
    classify,
    elementary_swap,
    make_sequence,
    sequence_from_json_dict,
    sequence_to_json_dict,
)
from quasiline.errors import (
    DuplicateId,
    IndexOutOfRange,
    NotDisjoint,
    ValidationError,
)
from quasiline.sequences import MAX_WIRES
from oracles import (
    pair_counts,
    permutation_after_by_replay,
    random_allowable_sequence,
    random_generalized_sequence,
    random_partial_sequence,
    swap_chain_by_bfs,
    window_wires_by_replay,
)


def test_move_validation():
    with pytest.raises(ValidationError):
        Move(0, 2)
    with pytest.raises(ValidationError):
        Move(1, 1)
    with pytest.raises(ValidationError):
        make_sequence(3, [(3, 2)])  # window exceeds n
    with pytest.raises(DuplicateId):
        PermSequence(3, (Move(1, 2, "p"), Move(2, 2, "p")))


def test_permutation_after_three_swaps():
    seq = make_sequence(3, [(1, 2), (2, 2), (1, 2)])
    assert seq.permutation_before(3) == (3, 2, 1)
    assert seq.permutation_before(0) == (1, 2, 3)
    assert seq.permutation_before(1) == (2, 1, 3)


def test_permutation_after_single_swap_n2():
    seq = make_sequence(2, [(1, 2)])
    assert seq.permutation_before(1) == (2, 1)


def test_permutation_after_bounds():
    seq = make_sequence(3, [(1, 2)])
    with pytest.raises(IndexOutOfRange):
        seq.permutation_before(2)
    with pytest.raises(IndexOutOfRange):
        seq.permutation_before(-1)


@pytest.mark.parametrize("wire", [0, 4, -1])
def test_wire_events_refuses_a_wire_outside_the_sequence(wire):
    seq = make_sequence(3, [(1, 2)])
    with pytest.raises(IndexOutOfRange, match=f"^wire {wire} not in \\[1, 3\\]$"):
        seq.wire_events(wire)
    assert [seq.wire_events(w) for w in (1, 2, 3)] == [(0,), (0,), ()]


def test_move_elements():
    seq = make_sequence(3, [(1, 2), (2, 2)])
    assert frozenset(seq.window_wires_table[1]) == frozenset({1, 3})
    assert frozenset(seq.window_wires_table[0]) == frozenset({1, 2})
    full = make_sequence(4, [(1, 4)])
    assert frozenset(full.window_wires_table[0]) == frozenset({1, 2, 3, 4})
    assert len(seq.window_wires_table) == seq.event_count == 2


def test_classify_examples():
    assert classify(make_sequence(3, [(1, 2), (2, 2), (1, 2)])) is SequenceClass.ALLOWABLE
    assert (
        classify(make_sequence(2, [(1, 2), (1, 2), (1, 2)]))
        is SequenceClass.GENERALIZED_ALLOWABLE
    )
    assert classify(make_sequence(3, [(1, 2)])) is SequenceClass.PARTIAL


def test_pair_move_count():
    allow = make_sequence(3, [(1, 2), (2, 2), (1, 2)])
    for x, y in itertools.combinations(range(1, 4), 2):
        assert pair_counts(allow)[frozenset((x, y))] == 1
    triple = make_sequence(2, [(1, 2), (1, 2), (1, 2)])
    assert pair_counts(triple)[frozenset((1, 2))] == 3
    partial = make_sequence(3, [(1, 2)])
    assert pair_counts(partial)[frozenset((1, 3))] == 0


def test_allowable_implies_reverse_final_permutation():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(2, 8)
        seq = random_allowable_sequence(rng, n)
        assert classify(seq) is SequenceClass.ALLOWABLE
        assert seq.permutation_before(len(seq.moves)) == tuple(range(n, 0, -1))


def test_generalized_iff_all_pair_counts_odd():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 8)
        seq = (
            random_generalized_sequence(rng, n)
            if rng.random() < 0.5
            else random_partial_sequence(rng, n, rng.randint(0, 6))
        )
        counts = pair_counts(seq)
        all_odd = all(
            counts[frozenset(p)] % 2 == 1
            for p in itertools.combinations(range(1, n + 1), 2)
        )
        final_reversed = seq.permutation_before(len(seq.moves)) == tuple(
            range(n, 0, -1)
        )
        assert all_odd == final_reversed
        assert (classify(seq) is not SequenceClass.PARTIAL) == all_odd
        all_once = all(
            counts[frozenset(p)] == 1
            for p in itertools.combinations(range(1, n + 1), 2)
        )
        assert (classify(seq) is SequenceClass.ALLOWABLE) == all_once


def test_pair_count_total_identity():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 8)
        seq = random_partial_sequence(rng, n, rng.randint(0, 8))
        counts = pair_counts(seq)
        by_pairs = sum(
            counts[frozenset(p)] for p in itertools.combinations(range(1, n + 1), 2)
        )
        by_moves = sum(math.comb(m.length, 2) for m in seq.moves)
        assert by_pairs == by_moves


def test_elementary_swap_disjoint():
    seq = make_sequence(5, [(1, 2), (3, 2)], designated=[1])
    swapped = elementary_swap(seq, 1)
    assert [(m.start, m.length) for m in swapped.moves] == [(3, 2), (1, 2)]
    assert swapped.designated_events() == (1,)
    assert swapped.permutation_before(2) == seq.permutation_before(2)


def test_elementary_swap_not_disjoint():
    seq = make_sequence(3, [(1, 2), (2, 2)])
    with pytest.raises(NotDisjoint):
        elementary_swap(seq, 1)
    with pytest.raises(IndexOutOfRange):
        elementary_swap(seq, 2)


def test_elementary_swap_involution_and_invariants():
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        n = rng.randint(4, 8)
        seq = random_generalized_sequence(rng, n, designate=True)
        sites = [
            i
            for i in range(1, len(seq.moves))
            if seq.moves[i - 1].disjoint_from(seq.moves[i])
        ]
        if not sites:
            continue
        i = rng.choice(sites)
        swapped = elementary_swap(seq, i)
        assert elementary_swap(swapped, i) == seq
        assert classify(swapped) == classify(seq)
        elems = sorted(
            (sorted(wires), m.point is not None)
            for wires, m in zip(seq.window_wires_table, seq.moves)
        )
        elems2 = sorted(
            (sorted(wires), m.point is not None)
            for wires, m in zip(swapped.window_wires_table, swapped.moves)
        )
        assert elems == elems2
        checked += 1


def test_swap_preserves_allowable():
    rng = random.Random(29)
    for _ in range(30):
        seq = random_allowable_sequence(rng, 6)
        sites = [
            i
            for i in range(1, len(seq.moves))
            if seq.moves[i - 1].disjoint_from(seq.moves[i])
        ]
        for i in sites:
            assert classify(elementary_swap(seq, i)) is SequenceClass.ALLOWABLE


def test_is_equivalent_bounded_self():
    seq = make_sequence(4, [(1, 2), (3, 2)])
    assert are_swap_equivalent(seq, seq) == []


def test_is_equivalent_bounded_one_swap():
    a = make_sequence(4, [(1, 2), (3, 2)])
    b = make_sequence(4, [(3, 2), (1, 2)])
    chain = are_swap_equivalent(a, b)
    assert chain == [1]
    # replay the chain
    cur = a
    for i in chain:
        cur = elementary_swap(cur, i)
    assert cur == b


def test_is_equivalent_bounded_refutes_different_invariants():
    a = make_sequence(4, [(1, 2), (3, 2)])
    b = make_sequence(4, [(1, 2), (2, 2)])
    assert are_swap_equivalent(a, b) is None


def test_is_equivalent_bounded_longer_chain():
    a = make_sequence(6, [(1, 2), (3, 2), (5, 2)])
    b = make_sequence(6, [(5, 2), (3, 2), (1, 2)])
    chain = are_swap_equivalent(a, b)
    assert chain is not None
    cur = a
    for i in chain:
        cur = elementary_swap(cur, i)
    assert cur == b


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3.7, "moves": []}',
        '{"n": 3, "moves": [[1.5, 2]]}',
        '{"n": 3, "moves": [[1, 2]], "designated": [0.9]}',
    ],
)
def test_sequence_json_refuses_fractional_numbers(text):
    with pytest.raises(ValidationError, match="expected an integer"):
        sequence_from_json_dict(json.loads(text))


def test_sequence_json_takes_integer_strings():
    text = '{"n": "3", "moves": [["1", "2"], [2, 2.0]], "designated": ["1"]}'
    assert sequence_from_json_dict(json.loads(text)) == make_sequence(3, [(1, 2), (2, 2)], [1])


@pytest.mark.parametrize(
    "call",
    [
        classify,
        lambda seq: seq.permutation_before(0),
        lambda seq: seq.window_wires_table,
        lambda seq: seq.wire_events(1),
    ],
    ids=["classify", "permutation_before", "window_wires_table", "wire_events"],
)
def test_wire_count_is_bounded_before_any_table(call):
    """A sequence loads with any n, but every n-sized table checks the
    bound first."""
    seq = sequence_from_json_dict({"n": MAX_WIRES + 1, "moves": [[1, 2]]})
    with pytest.raises(ValidationError, match="at most"):
        call(seq)


@pytest.mark.parametrize(
    "call", [classify, lambda seq: seq.permutation_before(0)], ids=["classify", "permutation_before"]
)
def test_a_huge_wire_count_is_a_typed_error(call):
    """Not an OverflowError from building the identity on 10**30 wires."""
    seq = sequence_from_json_dict({"n": 10**30, "moves": []})
    with pytest.raises(ValidationError, match="at most"):
        call(seq)


def test_json_roundtrip():
    rng = random.Random(31)
    for _ in range(20):
        seq = random_generalized_sequence(rng, rng.randint(2, 8), designate=True)
        text = json.dumps(sequence_to_json_dict(seq), sort_keys=True)
        assert sequence_from_json_dict(json.loads(text)) == seq


def test_window_wires_table_reads_top_to_bottom():
    seq = make_sequence(3, [(1, 2), (1, 3)])
    assert seq.window_wires_table[1] == (2, 1, 3)


def test_cached_tables_match_replay_oracle():
    rng = random.Random(37)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        seq = random_partial_sequence(rng, n, rng.randint(0, 8) if n > 1 else 0)
        m = len(seq.moves)
        checked += m == 0
        for t in range(m + 1):
            assert seq.permutation_before(t) == permutation_after_by_replay(seq, t)
        assert seq.window_wires_table == tuple(window_wires_by_replay(seq, i) for i in range(m))
        for t in (-1, m + 1):
            with pytest.raises(IndexOutOfRange):
                seq.permutation_before(t)
            with pytest.raises(IndexOutOfRange):
                permutation_after_by_replay(seq, t)
    assert checked >= 10  # empty sequences, n = 1 among them


def test_adjacent_swap_replay_matches_replay_oracle():
    """Sequences mostly of adjacent swaps, mixed with windows of length 3
    to 5: every window content and the final permutation equal the prefix
    replays'."""
    rng = random.Random(41)
    swaps = longer = 0
    for _ in range(200):
        n = rng.randint(2, 9)
        moves = []
        for _ in range(rng.randint(0, 25)):
            length = 2 if rng.random() < 0.7 else rng.randint(2, min(5, n))
            moves.append(Move(rng.randint(1, n - length + 1), length))
        seq = PermSequence(n, tuple(moves))
        for i in range(len(moves)):
            assert seq.window_wires_table[i] == window_wires_by_replay(seq, i)
        assert seq._replay[1] == permutation_after_by_replay(seq, len(moves))
        swaps += sum(m.length == 2 for m in moves)
        longer += sum(m.length > 2 for m in moves)
    assert swaps >= 1500 and longer >= 300


def test_out_of_range_move_raises_before_a_duplicate_label():
    """Bounds are checked on every move before labels are compared, so a
    later out-of-range move wins over an earlier duplicate label."""
    moves = (Move(1, 2, "p"), Move(2, 2, "p"), Move(3, 2), Move(3, 3))
    with pytest.raises(ValidationError) as caught:
        PermSequence(4, moves)
    assert type(caught.value) is ValidationError
    assert str(caught.value) == "move 4 window [3,5] exceeds n=4"
    with pytest.raises(DuplicateId, match="designated point labels must be distinct"):
        PermSequence(4, moves[:3])


def test_swaps_compare_designation_flags_and_carry_labels():
    # a and b hold the same three disjoint windows in opposite orders,
    # with the first and the last move designated: the designated windows
    # (1,2) and (3,2) trade index order, so the labels p1, p2 that loading
    # assigns in move order sit on different windows in a and b
    a = make_sequence(6, [(1, 2), (5, 2), (3, 2)], designated=[1, 3])
    b = make_sequence(6, [(3, 2), (5, 2), (1, 2)], designated=[1, 3])
    assert [m.point for m in a.moves] == ["p1", None, "p2"]
    assert [m.point for m in b.moves] == ["p1", None, "p2"]
    chain = are_swap_equivalent(a, b)
    assert chain is not None and len(chain) >= 3
    cur = a
    for i in chain:
        before = cur
        cur = elementary_swap(cur, i)
        assert (cur.moves[i - 1], cur.moves[i]) == (before.moves[i], before.moves[i - 1])
    # the labels rode along with their moves: (1,2) still carries p1
    assert [m.point for m in cur.moves] == ["p2", None, "p1"]
    assert [(m.start, m.length) for m in cur.moves] == [(m.start, m.length) for m in b.moves]
    assert cur.designated_events() == b.designated_events()
    # a different flag pattern on the same windows is not reachable
    c = make_sequence(6, [(3, 2), (5, 2), (1, 2)], designated=[1, 2])
    assert are_swap_equivalent(a, c) is None


def letters(seq):
    return [(m.start, m.length, m.point is not None) for m in seq.moves]


def replay(seq, chain):
    for i in chain:
        seq = elementary_swap(seq, i)
    return seq


def shuffled_by_swaps(rng, seq, swaps):
    for _ in range(swaps):
        sites = [
            i for i in range(1, len(seq.moves)) if seq.moves[i - 1].disjoint_from(seq.moves[i])
        ]
        if sites:
            seq = elementary_swap(seq, rng.choice(sites))
    return seq


def with_overlapping_pair_exchanged(rng, seq):
    """``seq`` with one adjacent pair of overlapping moves exchanged,
    which no chain of legal swaps can do: the same letters, most often
    in another swap class."""
    sites = [
        i for i in range(1, len(seq.moves)) if not seq.moves[i - 1].disjoint_from(seq.moves[i])
    ]
    if not sites:
        return seq
    i = rng.choice(sites)
    moves = list(seq.moves)
    moves[i - 1], moves[i] = moves[i], moves[i - 1]
    return PermSequence(seq.n, tuple(moves))


def test_swap_equivalence_matches_bfs_oracle():
    # Allowable and designated generalized sequences on 2-6 wires, each
    # against a shuffle of itself by random legal swaps (half the pairs),
    # that shuffle with one overlapping pair exchanged, or an independent
    # sequence on the same wires.  The oracle's budget exceeds every swap
    # class met here, so its None is a disproof too.  On 7 wires a class
    # can take the oracle 20 s to exhaust.
    rng = random.Random(41)
    verdicts = Counter()
    for k in range(600):
        n, shape = rng.randint(2, 6), k // 2 % 4

        def draw():
            if k % 2:
                return random_allowable_sequence(rng, n)
            return random_generalized_sequence(rng, n, designate=True)

        a = draw()
        b = shuffled_by_swaps(rng, a, rng.randint(1, 30))
        if shape == 2:
            b = with_overlapping_pair_exchanged(rng, b)
        elif shape == 3:
            b = draw()
        chain = are_swap_equivalent(a, b)
        expected = swap_chain_by_bfs(a, b, budget=10**6)
        assert (chain is None) == (expected is None)
        if chain is not None:
            assert len(chain) == len(expected)
            assert letters(replay(a, chain)) == letters(b)
            assert letters(replay(a, expected)) == letters(b)
            if shape < 2:
                assert replay(a, chain) == b
        verdicts[chain is not None, Counter(letters(a)) == Counter(letters(b))] += 1
    # over a hundred refuted pairs hold the same letters in both
    # sequences, so only the order of the moves refutes them
    assert verdicts[True, True] >= 300 and verdicts[False, True] >= 100, verdicts


def test_swap_equivalence_decides_past_any_search_budget():
    # Eight disjoint 2-windows against their reverse order: one swap
    # class of 8! orders, beyond the breadth-first oracle's budget.
    a = make_sequence(16, [(2 * i + 1, 2) for i in range(8)])
    b = make_sequence(16, [(2 * i + 1, 2) for i in reversed(range(8))])
    assert swap_chain_by_bfs(a, b, budget=10**4) is None
    chain = are_swap_equivalent(a, b)
    assert len(chain) == math.comb(8, 2)
    assert replay(a, chain) == b


def test_swap_equivalence_none_is_a_disproof():
    # Overlapping windows never trade places, so the two orders of these
    # moves are not equivalent, whatever the search budget.
    a = make_sequence(3, [(1, 2), (2, 2)])
    b = make_sequence(3, [(2, 2), (1, 2)])
    assert are_swap_equivalent(a, b) is None
    assert swap_chain_by_bfs(a, b, budget=10**6) is None
