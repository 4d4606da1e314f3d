"""Property tests: the ``.seq.json`` and ``.wd.json`` round trips of the
one move-sequence type, on sequences and diagrams drawn by Hypothesis,
the scheme JSON round trip of their surface maps, and ``.euclid.json``
input read by the CLI as the library sweeps it."""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from quasiline import (
    Move,
    PermSequence,
    fingerprint,
    make_sequence,
    scheme_from_json_dict,
    scheme_from_realization,
    scheme_to_json_dict,
    sequence_from_json_dict,
    sequence_to_json_dict,
)
from quasiline.cli import main
from quasiline.errors import DisconnectedScheme, WireWithoutPoint
from quasiline.wiring import (
    GeneralizedWiringDiagram,
    diagram_from_json_dict,
    diagram_from_lines,
    diagram_to_json_dict,
)

from oracles import SMALL_RATIONALS, finite_crossings

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)

LABELS = st.text(alphabet="ABCpq0123", min_size=1, max_size=3)


@st.composite
def windows(draw, n, max_moves=8):
    if n < 2:
        return []
    count = draw(st.integers(0, max_moves))
    out = []
    for _ in range(count):
        length = draw(st.integers(2, n))
        out.append((draw(st.integers(1, n - length + 1)), length))
    return out


@st.composite
def sequences(draw):
    """A partial sequence whose designated moves are labelled p1, p2, ...
    in move order, as sequence JSON loads them."""
    n = draw(st.integers(1, 8))
    moves = draw(windows(n))
    designated = draw(st.sets(st.integers(1, len(moves)))) if moves else set()
    return make_sequence(n, moves, designated)


@st.composite
def diagrams(draw):
    """A generalized diagram: drawn moves, then adjacent transpositions of
    drawn ascending pairs up to the reversal, with distinct drawn labels."""
    n = draw(st.integers(2, 7))
    moves = draw(windows(n, max_moves=5))
    perm = list(range(1, n + 1))
    for start, length in moves:
        perm[start - 1 : start - 1 + length] = perm[start - 1 : start - 1 + length][::-1]
    while perm != sorted(perm, reverse=True):
        ascending = [i for i in range(n - 1) if perm[i] < perm[i + 1]]
        i = draw(st.sampled_from(ascending))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        moves.append((i + 1, 2))
    labels = draw(st.lists(st.one_of(st.none(), LABELS), min_size=len(moves), max_size=len(moves)))
    seen = set()
    labelled = []
    for (start, length), label in zip(moves, labels):
        if label in seen:
            label = None
        seen.add(label)
        labelled.append(Move(start, length, label))
    return GeneralizedWiringDiagram(n, tuple(labelled))


@PROPERTY
@given(sequences())
def test_sequence_json_roundtrip(seq):
    text = json.dumps(sequence_to_json_dict(seq), sort_keys=True)
    loaded = sequence_from_json_dict(json.loads(text))
    assert loaded == seq
    assert json.dumps(sequence_to_json_dict(loaded), sort_keys=True) == text


@PROPERTY
@given(diagrams())
def test_diagram_json_roundtrip(d):
    data = json.loads(json.dumps(diagram_to_json_dict(d)))
    assert diagram_from_json_dict(data) == d
    # its sequence JSON forgets the labels but keeps the designated moves
    seq = sequence_from_json_dict(json.loads(json.dumps(sequence_to_json_dict(d))))
    assert [(m.start, m.length) for m in seq.moves] == [(m.start, m.length) for m in d.moves]
    assert seq.designated_events() == d.designated_events()
    assert sequence_to_json_dict(seq) == sequence_to_json_dict(d)
    assert isinstance(seq, PermSequence) and not isinstance(seq, GeneralizedWiringDiagram)


def surface_scheme(d):
    """The surface map of ``d``, or, when some wire has no designated
    crossing or the map is disconnected, that of ``d`` with every move
    designated."""
    try:
        return scheme_from_realization(d)
    except (WireWithoutPoint, DisconnectedScheme):
        moves = tuple(Move(m.start, m.length, f"e{i}") for i, m in enumerate(d.moves))
        return scheme_from_realization(GeneralizedWiringDiagram(d.n, moves))


@PROPERTY
@given(diagrams())
def test_scheme_json_roundtrip(d):
    s = surface_scheme(d)
    text = json.dumps(scheme_to_json_dict(s))
    back = scheme_from_json_dict(json.loads(text))
    assert json.dumps(scheme_to_json_dict(back)) == text
    # vertex labels are strings already; line tags come back as strings
    assert back.rotmap == s.rotmap
    assert back.lines == tuple(str(line) for line in s.lines)
    assert fingerprint(back) == fingerprint(s)


def _line_key(line):
    pivot = next(x for x in line if x)
    return tuple(x / pivot for x in line)


@st.composite
def euclidean_inputs(draw):
    """3-7 distinct lines with small rational coefficients (parallel,
    vertical and concurrent lines included), and some of their crossings
    with distinct labels."""
    coefficient = st.sampled_from(SMALL_RATIONALS)
    lines = draw(
        st.lists(
            st.tuples(coefficient, coefficient, coefficient).filter(lambda l: l[0] or l[1]),
            min_size=3,
            max_size=7,
            unique_by=_line_key,
        )
    )
    crossings = finite_crossings(lines)
    points = draw(st.lists(st.sampled_from(crossings), unique=True, max_size=4)) if crossings else []
    labels = draw(st.lists(LABELS, min_size=len(points), max_size=len(points), unique=True))
    return lines, points, labels


def _as_json_value(x: Fraction, integers: bool):
    return x.numerator if integers and x.denominator == 1 else str(x)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(euclidean_inputs())
def test_euclid_json_sweeps_as_the_library_does(arrangement):
    lines, points, labels = arrangement
    want = json.dumps(
        {"diagram": diagram_to_json_dict(diagram_from_lines(lines, points, labels))},
        sort_keys=True,
        indent=2,
    ) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        for integers in (False, True):
            path, out = Path(tmp) / "in.euclid.json", Path(tmp) / "out.json"
            rows = {
                "lines": [[_as_json_value(x, integers) for x in row] for row in lines],
                "points": [[_as_json_value(x, integers) for x in p] for p in points],
                "point_labels": labels,
            }
            path.write_text(json.dumps(rows))
            assert main(["wiring", str(path), "-o", str(out)]) == 0
            assert out.read_text() == want
