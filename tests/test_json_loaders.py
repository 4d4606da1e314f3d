"""Malformed sequence, diagram, drawing and scheme JSON raises typed
errors: each row of a table changes one field of a valid document and
names the error the loader must raise."""

import pytest

from quasiline import (
    default_plan,
    realize,
    scheme_from_json_dict,
    scheme_from_realization,
    scheme_to_json_dict,
    sequence_from_json_dict,
    sequence_to_json_dict,
)
from quasiline.errors import DisconnectedScheme, QuasilineError, ValidationError
from quasiline.wiring import (
    diagram_from_json_dict,
    diagram_from_realization,
    diagram_to_json_dict,
    drawing_from_json_dict,
    drawing_to_json_dict,
    straighten,
)

from oracles import triangle

REALIZATION = realize(triangle(), default_plan(triangle()))
SEQUENCE = sequence_to_json_dict(REALIZATION.seq)
DIAGRAM = diagram_from_realization(REALIZATION)
DIAGRAM_JSON = diagram_to_json_dict(DIAGRAM)
DRAWING = drawing_to_json_dict(straighten(DIAGRAM))
SCHEME = scheme_to_json_dict(scheme_from_realization(DIAGRAM))
# Two dipoles of four parallel edges each: a valid rotation system whose
# scheme is disconnected.
TWO_DIPOLES = {
    "vertices": ["a", "b", "c", "d"],
    "edges": [[0, 1]] * 4 + [[2, 3]] * 4,
    "rotations": [
        [[0, 0], [1, 0], [2, 0], [3, 0]],
        [[3, 1], [2, 1], [1, 1], [0, 1]],
        [[4, 0], [5, 0], [6, 0], [7, 0]],
        [[7, 1], [6, 1], [5, 1], [4, 1]],
    ],
    "signature": [1] * 8,
}


def changed(base, **fields):
    return {**base, **fields}


def without(base, key):
    return {k: v for k, v in base.items() if k != key}


SEQUENCE_ROWS = [
    ("boolean move start", changed(SEQUENCE, moves=[[True, 2]] + SEQUENCE["moves"][1:]),
     ValidationError),
    ("boolean designated index", changed(SEQUENCE, designated=[True]), ValidationError),
    ("fractional move length", changed(SEQUENCE, moves=[[1, 2.5]] + SEQUENCE["moves"][1:]),
     ValidationError),
    # a string is not unpacked character by character
    ("text moves", changed(SEQUENCE, n=3, moves=["12", "22", "12"], designated=[]), ValidationError),
    ("text move", changed(SEQUENCE, moves=["12"] + SEQUENCE["moves"][1:]), ValidationError),
    ("text designated", changed(SEQUENCE, designated="13"), ValidationError),
    ("object moves", changed(SEQUENCE, n=2, moves={"12": 1}, designated=[]), ValidationError),
]

def with_first_event(start):
    return changed(DIAGRAM_JSON, events=[[start, 2, None]] + DIAGRAM_JSON["events"][1:])


DIAGRAM_ROWS = [
    ("boolean event start", with_first_event(True), ValidationError),
    ("fractional event start", with_first_event(1.5), ValidationError),
    ("text events", changed(DIAGRAM_JSON, events=["12b", "22a", "12c"]), ValidationError),
    ("object events", changed(DIAGRAM_JSON, n=2, events={"12a": None}), ValidationError),
]

DRAWING_ROWS = [
    ("not an object", [], ValidationError),
    ("no positions", without(DRAWING, "positions"), ValidationError),
    ("float position", changed(DRAWING, positions=[[0.5, "1"]]), ValidationError),
    ("huge exponent", changed(DRAWING, positions=[["1e2000000", "0"]]), ValidationError),
    ("text position", changed(DRAWING, positions=[["x", "0"]]), ValidationError),
    ("zero denominator", changed(DRAWING, positions=[["1/0", "0"]]), ValidationError),
    ("three coordinates", changed(DRAWING, positions=[["1", "2", "3"]]), ValidationError),
    ("text n", changed(DRAWING, n="x"), ValidationError),
    ("null n", changed(DRAWING, n=None), ValidationError),
    ("infinite n", changed(DRAWING, n=float("inf")), ValidationError),
    ("fractional n", changed(DRAWING, n=3.7), ValidationError),
    ("fractional outer cycle", changed(DRAWING, outer_cycle=[0.2, 1.5, 2.9]), ValidationError),
    ("fractional chord end", changed(DRAWING, chords=[[0, 1.5]] + DRAWING["chords"][1:]), ValidationError),
    ("fractional wire path", changed(DRAWING, wire_paths=[[0.5, 1]] + DRAWING["wire_paths"][1:]), ValidationError),
    ("scalar outer cycle", changed(DRAWING, outer_cycle=5), ValidationError),
    ("one-ended chord", changed(DRAWING, chords=[[1]]), ValidationError),
    ("text wire path", changed(DRAWING, wire_paths=[["a"]]), ValidationError),
    ("more wires than chords", changed(DRAWING, n=DRAWING["n"] + 1), ValidationError),
    ("event past the positions", changed(DRAWING, outer_cycle=[0, 1, 99]), ValidationError),
    ("negative event", changed(DRAWING, chords=[[-1, 0]] + DRAWING["chords"][1:]), ValidationError),
    ("boolean position", changed(DRAWING, positions=[[True, "0"]] + DRAWING["positions"][1:]),
     ValidationError),
    ("boolean chord end", changed(DRAWING, chords=[[False, 1]] + DRAWING["chords"][1:]),
     ValidationError),
    ("text positions", changed(DRAWING, positions=["00", "10", "01"]), ValidationError),
    ("text outer cycle", changed(DRAWING, outer_cycle="012"), ValidationError),
    ("text chord", changed(DRAWING, chords=["01"] + DRAWING["chords"][1:]), ValidationError),
    ("text wire paths", changed(DRAWING, wire_paths=["01"] + DRAWING["wire_paths"][1:]),
     ValidationError),
]

SCHEME_ROWS = [
    ("not an object", "scheme", ValidationError),
    ("no rotations", without(SCHEME, "rotations"), ValidationError),
    ("scalar vertices", changed(SCHEME, vertices=5), ValidationError),
    ("one-ended edge", changed(SCHEME, edges=[[0]]), ValidationError),
    ("negative vertex index", changed(SCHEME, edges=[[-1, 0]] + SCHEME["edges"][1:]), ValidationError),
    ("text edge end", changed(SCHEME, edges=[["0", 1]] + SCHEME["edges"][1:]), ValidationError),
    ("extra rotation", changed(SCHEME, rotations=SCHEME["rotations"] + [[]]), ValidationError),
    ("missing rotations", {"vertices": ["a", "b"], "edges": [], "rotations": [], "signature": []},
     ValidationError),
    ("one vertex, no rotation", {"vertices": ["a"], "edges": [], "rotations": [], "signature": []},
     ValidationError),
    ("text dart", changed(SCHEME, rotations=[[["x", 0]]] + SCHEME["rotations"][1:]), ValidationError),
    ("text signature", changed(SCHEME, signature=["x"] * len(SCHEME["signature"])), ValidationError),
    ("infinite signature", changed(SCHEME, signature=[float("inf")]), ValidationError),
    ("fractional signature", changed(SCHEME, signature=[1.9] + SCHEME["signature"][1:]), ValidationError),
    ("fractional dart", changed(SCHEME, rotations=[[[0.5, 0]]] + SCHEME["rotations"][1:]), ValidationError),
    ("boolean dart ends", changed(SCHEME, rotations=[[[e, bool(end)] for e, end in SCHEME["rotations"][0]]]
     + SCHEME["rotations"][1:]), ValidationError),
    ("boolean signature", changed(SCHEME, signature=[True] * len(SCHEME["signature"])),
     ValidationError),
    ("scalar lines", changed(SCHEME, lines=5), ValidationError),
    ("text vertices", changed(SCHEME, vertices="abc"), ValidationError),
    ("text darts", changed(SCHEME, rotations=[[f"{e}{end}" for e, end in row]
                                              for row in SCHEME["rotations"]]), ValidationError),
    ("text signature string", changed(SCHEME, signature="1" * len(SCHEME["signature"])),
     ValidationError),
    ("text lines", changed(SCHEME, lines="l" * len(SCHEME["edges"])), ValidationError),
    # a well-formed document of an invalid map: make_scheme's own error
    ("disconnected", TWO_DIPOLES, DisconnectedScheme),
]


@pytest.mark.parametrize(
    "loader, data, error",
    [(drawing_from_json_dict, data, error) for _, data, error in DRAWING_ROWS]
    + [(scheme_from_json_dict, data, error) for _, data, error in SCHEME_ROWS]
    + [(sequence_from_json_dict, data, error) for _, data, error in SEQUENCE_ROWS]
    + [(diagram_from_json_dict, data, error) for _, data, error in DIAGRAM_ROWS],
    ids=[f"drawing-{name}" for name, _, _ in DRAWING_ROWS]
    + [f"scheme-{name}" for name, _, _ in SCHEME_ROWS]
    + [f"sequence-{name}" for name, _, _ in SEQUENCE_ROWS]
    + [f"diagram-{name}" for name, _, _ in DIAGRAM_ROWS],
)
def test_malformed_json_raises_typed_error(loader, data, error):
    with pytest.raises(error) as caught:
        loader(data)
    assert isinstance(caught.value, QuasilineError)


def test_make_scheme_errors_are_not_rewrapped():
    data = changed(SCHEME, signature=[2] * len(SCHEME["signature"]))
    with pytest.raises(ValidationError, match="^signatures must be") as caught:
        scheme_from_json_dict(data)
    assert caught.value.__cause__ is None


def test_valid_documents_load():
    assert drawing_to_json_dict(drawing_from_json_dict(DRAWING)) == DRAWING
    assert scheme_to_json_dict(scheme_from_json_dict(SCHEME)) == SCHEME
    assert sequence_to_json_dict(sequence_from_json_dict(SEQUENCE)) == SEQUENCE
    assert diagram_to_json_dict(diagram_from_json_dict(DIAGRAM_JSON)) == DIAGRAM_JSON


def integer_strings(data):
    """``data`` with every integer of its index fields written as a string."""
    if isinstance(data, list):
        return [integer_strings(x) for x in data]
    return str(data) if isinstance(data, int) else data


def test_integer_strings_load():
    drawing = {
        **DRAWING,
        **{k: integer_strings(DRAWING[k]) for k in ("n", "outer_cycle", "chords", "wire_paths")},
    }
    assert drawing_from_json_dict(drawing) == drawing_from_json_dict(DRAWING)
    scheme = {**SCHEME, **{k: integer_strings(SCHEME[k]) for k in ("rotations", "signature")}}
    assert scheme_from_json_dict(scheme) == scheme_from_json_dict(SCHEME)
