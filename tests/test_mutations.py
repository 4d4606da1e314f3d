import itertools
import random

import pytest

from quasiline import Move, SequenceClass, classify, make_sequence
from quasiline.errors import NoSuchFace, NotAdmissible, QuasilineError
from quasiline.wiring import (
    GeneralizedWiringDiagram,
    apply_triangle_move,
    insert_digon,
    removable_digons,
    remove_digon,
    trace_faces_disk,
    triangle_moves,
)
from quasiline.wiring.mutations import _check_triangle

from oracles import (
    as_diagram,
    check_triangle_by_ranges,
    cyclic,
    fano,
    insert_digon_by_replay,
    next_on_wires_by_pairs,
    random_generalized_sequence,
    random_long_window_sequence,
    realized,
    remove_digon_by_sets,
    removable_digons_by_scan,
    seeded_walk,
    triangle,
    triangle_moves_by_bands,
    triangle_moves_by_triples,
    two_lines_three_points,
    with_random_digons,
)


def unlabelled(d):
    """The same diagram with every point label dropped."""
    return GeneralizedWiringDiagram(d.n, tuple(Move(m.start, m.length) for m in d.moves))


def test_insert_then_remove_is_identity():
    d = realized(triangle())
    rng = random.Random(71)
    for _ in range(20):
        at = rng.randint(0, d.event_count)
        perm = d.permutation_before(at)
        t = rng.randint(0, d.n - 2)
        pair = (perm[t], perm[t + 1])
        inserted = insert_digon(d, pair, at)
        assert inserted.event_count == d.event_count + 2
        assert remove_digon(inserted, at) == d


def test_insert_digon_requires_adjacency():
    d = realized(triangle())
    perm = d.permutation_before(0)
    with pytest.raises(NoSuchFace):
        insert_digon(d, (perm[0], perm[2]), 0)


def test_insert_digon_increases_digon_count():
    d = realized(triangle())
    inserted = insert_digon(d, (1, 2), 0)
    assert any(len(f) == 2 for f in trace_faces_disk(inserted))
    assert classify(inserted) is SequenceClass.GENERALIZED_ALLOWABLE


def test_remove_digon_rejects_designated():
    c = two_lines_three_points()
    d = realized(c)
    # every consecutive same-pair crossing involves a designated event here
    for at in range(d.event_count):
        with pytest.raises((NotAdmissible, NoSuchFace)):
            remove_digon(d, at)


def test_removable_digons_listing():
    d = realized(triangle())
    inserted = insert_digon(d, (1, 2), 0)
    sites = list(removable_digons(inserted))
    assert (0, 1) in sites
    for at, partner in sites:
        back = remove_digon(inserted, at)
        assert back.event_count == inserted.event_count - 2


def test_triangle_move_on_triangle_diagram():
    d = realized(triangle())
    # all three crossings designated: not admissible
    with pytest.raises(NotAdmissible):
        apply_triangle_move(d, (0, 1, 2))
    # strip the designations to make it admissible
    bare = unlabelled(d)
    moved = apply_triangle_move(bare, (0, 1, 2))
    assert [(e.start, e.length) for e in moved.moves] == [(2, 2), (1, 2), (2, 2)]
    assert classify(moved) is SequenceClass.ALLOWABLE
    # and back
    again = apply_triangle_move(moved, (0, 1, 2))
    assert [(e.start, e.length) for e in again.moves] == [(1, 2), (2, 2), (1, 2)]


def test_triangle_move_bad_pattern():
    bare = unlabelled(realized(triangle()))
    with pytest.raises(NoSuchFace):
        apply_triangle_move(bare, (0, 1, 1))
    with pytest.raises(NoSuchFace):
        apply_triangle_move(bare, (0, 1, 5))


def test_triangle_move_interference():
    # braid pattern with an interfering crossing in the band
    from quasiline import make_sequence

    seq = make_sequence(3, [(1, 2), (2, 2), (2, 2), (2, 2), (1, 2)])
    d = as_diagram(seq)
    with pytest.raises(NoSuchFace):
        apply_triangle_move(d, (0, 1, 4))


def test_triangle_moves_finder():
    d = realized(triangle())
    bare = unlabelled(d)
    assert (0, 1, 2) in list(triangle_moves(bare))
    assert list(triangle_moves(d)) == []


def test_moves_preserve_designated_data():
    d = realized(fano())
    inserted = insert_digon(d, (1, 2), 0)
    assert [e.point for e in inserted.moves if e.point is not None] == [
        e.point for e in d.moves if e.point is not None
    ]
    # designated windows unchanged
    des_before = [
        (d.window_wires_table[i], d.moves[i].point) for i in d.designated_events()
    ]
    des_after = [
        (inserted.window_wires_table[i], inserted.moves[i].point)
        for i in inserted.designated_events()
    ]
    assert des_before == des_after


def test_random_move_sequences_stay_valid():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(3, 7)
        d = as_diagram(random_generalized_sequence(rng, n, designate=True))
        for _ in range(4):
            choice = rng.random()
            if choice < 0.5:
                d = with_random_digons(rng, d, 1)
            else:
                sites = list(removable_digons(d))
                if sites:
                    d = remove_digon(d, sites[rng.randrange(len(sites))][0])
        assert classify(d) is not SequenceClass.PARTIAL


def checked_digon_sites(d):
    """The number of removable digons of ``d``, after checking that
    ``removable_digons`` lists the scan oracle's pairs and that
    ``remove_digon`` removes exactly those pairs and raises elsewhere."""
    expected = removable_digons_by_scan(d)
    assert list(removable_digons(d)) == expected
    partner = dict(expected)
    for at in range(d.event_count):
        if at in partner:
            kept = (m for k, m in enumerate(d.moves) if k not in (at, partner[at]))
            assert remove_digon(d, at) == GeneralizedWiringDiagram(d.n, tuple(kept))
        else:
            with pytest.raises((NoSuchFace, NotAdmissible)):
                remove_digon(d, at)
    return len(expected)


def test_digon_partners_match_scan_oracle():
    rng = random.Random(97)
    pairs = 0
    for _ in range(150):
        d = as_diagram(random_generalized_sequence(rng, rng.randint(2, 7), designate=True))
        d = with_random_digons(rng, d, rng.randint(0, 3))
        pairs += checked_digon_sites(d)
    assert pairs >= 200


def test_triangle_sites_match_triple_oracle():
    rng = random.Random(101)
    random_sites = walk_sites = 0
    for _ in range(300):
        d = as_diagram(random_generalized_sequence(rng, rng.randint(2, 7), designate=True))
        expected = triangle_moves_by_triples(d)
        assert list(triangle_moves(d)) == expected
        random_sites += len(expected)
    for d in (d for n in range(8, 12) for d in seeded_walk(rng, cyclic(n), 8)):
        expected = triangle_moves_by_triples(d)
        assert list(triangle_moves(d)) == expected
        walk_sites += len(expected)
    assert random_sites >= 40 and walk_sites >= 20


@pytest.mark.parametrize(
    "n, moves, designated, triangles, digons",
    [
        # two wires: no three-track band, so no triangle site
        (2, [(1, 2)], [], [], []),
        (2, [(1, 2)] * 3, [], [], [(0, 1), (1, 2)]),
        (2, [(1, 2)] * 3, [2], [], []),
        # three wires: the one band 1..3
        (3, [(1, 3)], [], [], []),
        (3, [(1, 2), (2, 2), (1, 2)], [], [(0, 1, 2)], []),
        (3, [(1, 2), (2, 2), (1, 2)], [2], [], []),
        (3, [(2, 2), (1, 2), (2, 2), (2, 2), (2, 2)], [], [(0, 1, 2)], [(2, 3), (3, 4)]),
        (3, [(1, 3), (1, 2), (1, 2), (2, 2), (2, 2)], [], [], [(1, 2), (3, 4)]),
        # the full window between two braids interferes with neither
        (3, [(1, 2), (2, 2), (1, 2), (1, 3), (2, 2), (1, 2), (2, 2)], [], [(0, 1, 2), (4, 5, 6)], []),
    ],
)
def test_sites_on_two_and_three_wires(n, moves, designated, triangles, digons):
    d = as_diagram(make_sequence(n, moves, designated))
    assert list(triangle_moves(d)) == triangles == triangle_moves_by_triples(d)
    assert list(removable_digons(d)) == digons == removable_digons_by_scan(d)


def test_sites_beside_long_windows_match_oracles():
    """Windows of length >= 3 at track 1 and at track n meet several
    bands and both wires' event lists; the sites around them equal the
    scan oracles'."""
    rng = random.Random(103)
    triangles = digons = 0
    for _ in range(250):
        seq = random_long_window_sequence(rng, rng.randint(3, 7), designate=True)
        d = with_random_digons(rng, as_diagram(seq), rng.randint(0, 3))
        assert any(m.start == 1 and m.length >= 3 for m in d.moves)
        assert any(m.stop == d.n and m.length >= 3 for m in d.moves)
        expected = triangle_moves_by_triples(d)
        assert list(triangle_moves(d)) == expected
        triangles += len(expected)
        digons += checked_digon_sites(d)
    assert triangles >= 60 and digons >= 400


def outcome(f, *args):
    """The result of ``f(*args)``, or the type and text of its error."""
    try:
        return f(*args)
    except QuasilineError as exc:
        return type(exc), str(exc)


def test_sites_and_removals_match_oracles_along_walks():
    """Along seeded walks from cyclic (8_3) ... (11_3), the cached partner
    table, both site lists and every removal equal the per-call partner
    table, the band-list and scan oracles and the two-set partner test,
    errors included."""
    rng = random.Random(107)
    triangles = digons = refused = 0
    for n in range(8, 12):
        for d in seeded_walk(rng, cyclic(n), 60):
            assert list(d.next_on_wires) == next_on_wires_by_pairs(d)
            sites = list(triangle_moves(d))
            assert sites == triangle_moves_by_bands(d)
            pairs = list(removable_digons(d))
            assert pairs == removable_digons_by_scan(d)
            for at in range(-1, d.event_count + 1):
                got = outcome(remove_digon, d, at)
                assert got == outcome(remove_digon_by_sets, d, at)
                refused += isinstance(got, tuple)
            triangles += len(sites)
            digons += len(pairs)
    assert triangles >= 150 and digons >= 120 and refused >= 8000


def test_insert_digon_matches_prefix_replay_on_every_slot_and_pair():
    """On every slot and every pair of wires, distinct or not and in range
    or not, insert_digon returns the prefix-replay oracle's diagram or
    raises its error with its text, the non-adjacent tracks among them."""
    rng = random.Random(109)
    diagrams = [as_diagram(random_long_window_sequence(rng, rng.randint(3, 6))) for _ in range(20)]
    diagrams += list(seeded_walk(rng, cyclic(8), 3))
    inserted = not_adjacent = 0
    for d in diagrams:
        wires = range(0, d.n + 2)
        for at in range(-1, d.event_count + 2):
            for pair in itertools.product(wires, wires):
                got = outcome(insert_digon, d, pair, at)
                assert got == outcome(insert_digon_by_replay, d, pair, at)
                inserted += isinstance(got, GeneralizedWiringDiagram)
                not_adjacent += isinstance(got, tuple) and "not adjacent" in got[1]
    assert inserted >= 2500 and not_adjacent >= 5000


def test_check_triangle_matches_range_oracle_on_every_triple():
    """_check_triangle accepts the triples the range oracle accepts and
    raises its errors with their texts, interference among them."""
    rng = random.Random(113)
    sites = interfering = 0
    for _ in range(150):
        seq = random_generalized_sequence(rng, rng.randint(3, 6), designate=rng.random() < 0.3)
        d = with_random_digons(rng, as_diagram(seq), rng.randint(0, 2))
        for triple in itertools.combinations(range(-1, d.event_count + 1), 3):
            got = outcome(_check_triangle, d, triple)
            assert got == outcome(check_triangle_by_ranges, d, triple)
            sites += not isinstance(got[0], type)
            interfering += isinstance(got[0], type) and "interferes" in got[1]
    assert sites >= 60 and interfering >= 1200
