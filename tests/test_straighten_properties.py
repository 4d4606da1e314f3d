"""Property tests: digon-free Euclidean line arrangements drawn by
Hypothesis, of 5 to 9 and of 15 to 25 lines, straighten, pass the
pairwise segment and chord-line oracles, and their drawings round trip
through JSON exactly."""

import json
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasiline.wiring import (
    diagram_from_lines,
    drawing_from_json_dict,
    drawing_to_json_dict,
    straighten,
)

from oracles import _concurrent
from test_straighten import check_straightening

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None, database=None)

COEFFICIENTS = st.integers(-9, 9)


def projective_key(line):
    """The line a x + b y = c up to a nonzero factor."""
    g = gcd(*line)
    key = tuple(x // g for x in line)
    return key if (key[0], key[1]) > (0, 0) else tuple(-x for x in key)


@st.composite
def line_arrangements(draw, least=5, most=9):
    """``least`` to ``most`` distinct integer lines a x + b y = c, not all
    through one (possibly infinite) point: a projective line arrangement
    of at least three lines not all concurrent has no digon."""
    n = draw(st.integers(least, most))
    lines = draw(st.lists(
        st.tuples(COEFFICIENTS, COEFFICIENTS, COEFFICIENTS).filter(lambda l: l[0] or l[1]),
        min_size=n, max_size=n, unique_by=projective_key,
    ))
    assume(not all(_concurrent(lines[0], lines[1], line) for line in lines[2:]))
    return lines


@PROPERTY
@given(line_arrangements())
def test_euclidean_arrangements_straighten(lines):
    # check_straightening asserts arcs_pairwise_disjoint and
    # chord_lines_meet_inside on the drawing, among other checks
    check_straightening(diagram_from_lines(lines))


@PROPERTY
@given(line_arrangements())
def test_drawing_json_roundtrip(lines):
    drawing = straighten(diagram_from_lines(lines))
    text = json.dumps(drawing_to_json_dict(drawing))
    back = drawing_from_json_dict(json.loads(text))
    assert back == drawing
    assert json.dumps(drawing_to_json_dict(back)) == text


@settings(PROPERTY, max_examples=5)
@given(line_arrangements(15, 25))
def test_large_euclidean_arrangements_straighten(lines):
    check_straightening(diagram_from_lines(lines))
