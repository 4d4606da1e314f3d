from fractions import Fraction

import pytest

from quasiline import SequenceClass, classify, topological_unwanted_bound
from quasiline.errors import DuplicateLine, ValidationError
from quasiline.wiring import (
    detect_digons,
    diagram_from_lines,
    euler_characteristic,
)

from oracles import PAPPUS_EUCLIDEAN_LINES, PAPPUS_LABELS, PAPPUS_POINTS


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
    assert euler_characteristic(d) == 1
    assert not detect_digons(d)


def test_pappus_designated_labels_complete():
    d = diagram_from_lines(PAPPUS_EUCLIDEAN_LINES, PAPPUS_POINTS, PAPPUS_LABELS)
    labels = {d.moves[i].point for i in d.designated_events()}
    assert labels == set(PAPPUS_LABELS)


def test_rational_string_coefficients():
    d = diagram_from_lines([("1", "-1", "0"), ("1", "1", "1/2"), ("0", "1", "1/3")])
    assert d.event_count == 3


@pytest.mark.parametrize(
    "lines, points",
    [
        ([("a", "1", "0"), ("1", "0", "0")], []),
        ([("1/0", "1", "0"), ("1", "0", "0")], []),
        ([("1", "0"), ("0", "1", "0")], []),
        ([(1, 0, 0), (0, 1, 0)], [(0,)]),
    ],
    ids=["unparsable", "zero-denominator", "short-line", "short-point"],
)
def test_malformed_input_is_a_validation_error(lines, points):
    with pytest.raises(ValidationError):
        diagram_from_lines(lines, points)
