import itertools
import random
from fractions import Fraction

import pytest

from quasiline import SequenceClass, classify, topological_unwanted_bound
from quasiline.errors import DuplicateLine, QuasilineError, ValidationError
from quasiline.wiring import diagram_from_lines, trace_faces_disk

from quasiline.jsonshape import MAX_DIGITS, as_fraction
from quasiline.wiring import euclid
from quasiline.wiring.euclid import (
    _chart_candidates,
    _shear_candidates,
)

from oracles import (
    PAPPUS_EUCLIDEAN_LINES,
    PAPPUS_LABELS,
    PAPPUS_POINTS,
    WIDE_CHART_LINES,
    arrangement_map_by_scan,
    diagram_from_lines_by_fractions,
    finite_crossings,
    random_line_arrangement,
    shear_by_fractions,
    small_rational_arrangement,
)
from test_straighten import check_straightening


def test_three_generic_lines():
    d = diagram_from_lines([(1, -1, 0), (1, 1, 2), (0, 1, Fraction(1, 3))])
    assert d.n == 3
    assert d.event_count == 3
    assert all(ev.length == 2 for ev in d.moves)
    assert classify(d) is SequenceClass.ALLOWABLE


def test_two_parallel_lines_resolved_by_chart():
    d = diagram_from_lines([(1, -1, 0), (1, -1, 5)])
    assert d.n == 2
    assert d.event_count == 1


def test_three_parallel_lines_merge_at_infinity():
    d = diagram_from_lines([(0, 1, 0), (0, 1, 1), (0, 1, 2)])
    # all three meet in one projective point: a single singular crossing
    assert d.event_count == 1
    assert d.moves[0].length == 3


def test_duplicate_line_rejected():
    with pytest.raises(DuplicateLine):
        diagram_from_lines([(1, -1, 0), (2, -2, 0)])


def test_degenerate_triple_rejected():
    with pytest.raises(ValidationError):
        diagram_from_lines([(0, 0, 1), (1, 0, 0)])


def test_point_not_an_intersection_rejected():
    with pytest.raises(ValidationError):
        diagram_from_lines([(1, 0, 0), (0, 1, 0)], points=[(1, 1)])
    # parallel lines move the chart, which sends this point to infinity
    with pytest.raises(ValidationError):
        diagram_from_lines([(1, 0, 0), (1, 0, 1)], points=[(0, 1)])


def test_selected_point_becomes_designated():
    d = diagram_from_lines([(1, 0, 0), (0, 1, 0)], points=[(0, 0)], point_labels=["O"])
    assert d.event_count == 1
    assert d.moves[0].point == "O"


def test_concurrent_lines_merge():
    # three lines through the origin plus one generic
    d = diagram_from_lines(
        [(1, -1, 0), (1, 1, 0), (0, 1, 0), (0, 1, 5)], points=[(0, 0)]
    )
    merged = [ev for ev in d.moves if ev.length == 3]
    assert len(merged) == 1
    assert merged[0].point == "P1"


def test_pappus_unwanted_crossings():
    d = diagram_from_lines(PAPPUS_EUCLIDEAN_LINES, PAPPUS_POINTS, PAPPUS_LABELS)
    assert d.n == 9
    designated = d.designated_events()
    assert len(designated) == 9
    assert all(d.moves[i].length == 3 for i in designated)
    regular = [i for i in range(d.event_count) if d.moves[i].point is None]
    assert all(d.moves[i].length == 2 for i in regular)
    assert len(regular) == topological_unwanted_bound(9, 3) == 9
    assert classify(d) is SequenceClass.ALLOWABLE
    rm = arrangement_map_by_scan(d)
    assert len(rm.vertices) - len(rm.edges) + len(rm.faces) == 1
    assert all(len(f) != 2 for f in trace_faces_disk(d))


def test_pappus_designated_labels_complete():
    d = diagram_from_lines(PAPPUS_EUCLIDEAN_LINES, PAPPUS_POINTS, PAPPUS_LABELS)
    labels = {d.moves[i].point for i in d.designated_events()}
    assert labels == set(PAPPUS_LABELS)


def test_rational_string_coefficients():
    d = diagram_from_lines([("1", "-1", "0"), ("1", "1", "1/2"), ("0", "1", "1/3")])
    assert d.event_count == 3


@pytest.mark.parametrize(
    "lines, points, labels",
    [
        ([("a", "1", "0"), ("1", "0", "0")], [], None),
        ([("1/0", "1", "0"), ("1", "0", "0")], [], None),
        ([("1", "0"), ("0", "1", "0")], [], None),
        ([(1, 0, 0), (0, 1, 0)], [(0,)], None),
        ([("1e2000000", "1", "0"), ("1", "0", "0")], [], None),
        (["100", "010", "111"], [], None),
        (5, [], None),
        ([(1, 0, 0), (0, 1, 0)], 5, None),
        ([(1, 0, 0), (0, 1, 0)], [(0, 0)], 5),
        ([(1, 0, 0), (0, 1, 0)], [(0, 0)], [[1]]),
        ([(1, 0, 0), (0, 1, 0)], [(0, 0)], "A"),
        ([(1, 0, 0), (0, 1, 0)], [(0, 0)], ["A", "B"]),
    ],
    ids=["unparsable", "zero-denominator", "short-line", "short-point", "huge-exponent",
         "text-rows", "scalar-lines", "scalar-points", "scalar-labels", "unhashable-label",
         "text-labels", "two-labels-one-point"],
)
def test_malformed_input_is_a_validation_error(lines, points, labels):
    with pytest.raises(ValidationError):
        diagram_from_lines(lines, points, labels)


def test_point_labels_may_be_a_list_or_a_tuple_of_hashables():
    for labels in (["O"], ("O",), [7], [("x", 1)]):
        d = diagram_from_lines([(1, 0, 0), (0, 1, 0)], [(0, 0)], labels)
        assert [d.moves[i].point for i in d.designated_events()] == list(labels)


def test_digit_bound_counts_mantissa_digits_and_exponent():
    assert as_fraction(f"1e{MAX_DIGITS - 1}") == 10 ** (MAX_DIGITS - 1)
    assert as_fraction(f"-2.5e-{MAX_DIGITS - 2}") == Fraction(-25, 10 ** (MAX_DIGITS - 1))
    for text in (f"1e{MAX_DIGITS}", f"2.5e-{MAX_DIGITS}", f"1E+{10 * MAX_DIGITS}",
                 "1" * (MAX_DIGITS + 1), f"0.0001e{MAX_DIGITS}"):
        with pytest.raises(ValidationError, match="digits"):
            as_fraction(text)


def _outcome(sweep, *args):
    try:
        return sweep(*args)
    except QuasilineError as exc:
        return type(exc)


def _selections(rng, lines):
    """Some crossings of the lines, sometimes a random point (rarely a
    crossing) and sometimes one selection twice."""
    crossings = finite_crossings(lines)
    points = rng.sample(crossings, min(len(crossings), rng.randint(0, 4)))
    if rng.random() < 0.2:
        points.append((Fraction(rng.randint(-40, 40), 7), Fraction(rng.randint(-40, 40), 11)))
    if points and rng.random() < 0.15:
        points.append(rng.choice(points))
    return points


def test_sweep_matches_fraction_chart_oracle():
    cases = [
        ([(1, 0, 0), (1, 0, 1)], [(0, 1)], None),
        ([(1, 0, 0), (1, 0, 1), (0, 1, 0)], [(1, 0), (0, 0)], ["right", "left"]),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 0), (0, 0)], ["O", "again"]),
        ([(0, 1, 0), (0, 1, 1), (0, 1, 2)], [], None),
        (PAPPUS_EUCLIDEAN_LINES, PAPPUS_POINTS, PAPPUS_LABELS),
        (PAPPUS_EUCLIDEAN_LINES, PAPPUS_POINTS[::-1], [(k,) for k in range(9)]),
    ]
    rng = random.Random(20140)
    for n in range(3, 10):
        for _ in range(40):
            lines = random_line_arrangement(rng, n)
            cases.append((lines, _selections(rng, lines), None))
    for _ in range(300):
        lines = small_rational_arrangement(rng, rng.randint(2, 8))
        points = _selections(rng, lines)
        labels = [f"Q{k}" for k in range(len(points))] if rng.random() < 0.5 else None
        cases.append((lines, points, labels))
    outcomes = set()
    for lines, points, labels in cases:
        want = _outcome(diagram_from_lines_by_fractions, lines, points, labels)
        assert _outcome(diagram_from_lines, lines, points, labels) == want, (lines, points)
        outcomes.add(want if isinstance(want, type) else "diagram")
    assert outcomes >= {"diagram", ValidationError, DuplicateLine}


def test_shear_search_matches_fraction_dict_oracle(monkeypatch):
    chosen = []
    search = euclid._shear

    def spy(points, normals):
        points = list(points)
        shear = search(points, normals)
        chosen.append(shear)
        assert shear == shear_by_fractions(points, normals)
        return shear

    monkeypatch.setattr(euclid, "_shear", spy)
    rng = random.Random(150)
    for n in range(3, 25):
        for _ in range(6):
            diagram_from_lines(random_line_arrangement(rng, n))
    for _ in range(200):
        try:
            diagram_from_lines(small_rational_arrangement(rng, rng.randint(2, 8)))
        except ValidationError:  # a repeated or degenerate line
            pass
    diagram_from_lines(PAPPUS_EUCLIDEAN_LINES)
    # most of these arrangements have two crossings with one abscissa, so
    # the first shear fails, and some need more than one further candidate
    assert sum(shear != (0, 1) for shear in chosen) > len(chosen) // 2
    assert len(set(chosen)) > 3


def test_first_chart_and_shear_candidates_keep_their_order():
    # The candidate lists were once cut after these prefixes; every input
    # that swept then gets the same chart and shear now.
    charts = [(0, 0, 1)] + [
        (p, q, 1)
        for radius in range(1, 8)
        for p in range(-radius, radius + 1)
        for q in range(-radius, radius + 1)
        if max(abs(p), abs(q)) == radius
    ]
    shears = [(0, 1)] + [
        pair for k in range(1, 40) for pair in ((k, 1), (-k, 1), (1, k + 1), (-1, k + 1))
    ]
    assert (len(charts), len(shears)) == (225, 157)
    assert list(itertools.islice(_chart_candidates(), len(charts))) == charts
    assert list(itertools.islice(_shear_candidates(), len(shears))) == shears


def test_chart_search_goes_past_radius_seven(monkeypatch):
    tried = []
    candidates = euclid._chart_candidates
    monkeypatch.setattr(
        euclid, "_chart_candidates", lambda: (tried.append(w) or w for w in candidates())
    )
    d = diagram_from_lines(WIDE_CHART_LINES)
    assert tried[-1] == (-8, -8, 1) and len(tried) == 226
    assert d == diagram_from_lines_by_fractions(WIDE_CHART_LINES)
    check_straightening(d)


def test_sweep_invariant_failures_are_typed(monkeypatch):
    """Events swept out of abscissa order break the window check, which
    raises a typed error (also under ``python -O``), not a bare
    AssertionError."""
    order = euclid._ratio_order
    calls = []

    def shuffled_events(pairs):
        calls.append(pairs)
        result = order(pairs)
        if len(calls) == 2:  # slopes first, then events
            random.Random(7).shuffle(result)
        return result

    monkeypatch.setattr(euclid, "_ratio_order", shuffled_events)
    with pytest.raises(QuasilineError, match="not adjacent in order"):
        diagram_from_lines(random_line_arrangement(random.Random(5), 5))
