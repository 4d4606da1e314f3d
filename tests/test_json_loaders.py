"""Malformed sequence, diagram, drawing and scheme JSON raises typed
errors: each row of a table changes one field of a valid document and
names the error the loader must raise, and a sweep puts every value of a
fixed list at every field of the four documents."""

import pytest

from quasiline import (
    classify,
    default_plan,
    fingerprint,
    realize,
    scheme_from_json_dict,
    scheme_from_realization,
    scheme_to_json_dict,
    sequence_from_json_dict,
    sequence_to_json_dict,
    straight_ahead_walks,
    trace_and_summarize,
)
from quasiline.errors import DisconnectedScheme, QuasilineError, ValidationError
from quasiline.jsonshape import as_int, as_text, as_text_or_null, read
from quasiline.wiring import (
    diagram_from_json_dict,
    diagram_from_realization,
    diagram_to_json_dict,
    drawing_from_json_dict,
    drawing_to_json_dict,
    removable_digons,
    straighten,
    sweep_digraph,
    trace_faces_disk,
    triangle_moves,
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
    # an optional field may be absent, but null is not an array
    ("null designated", changed(SEQUENCE, designated=None), ValidationError),
]

def with_first_event(start):
    return changed(DIAGRAM_JSON, events=[[start, 2, None]] + DIAGRAM_JSON["events"][1:])


DIAGRAM_ROWS = [
    ("boolean event start", with_first_event(True), ValidationError),
    ("fractional event start", with_first_event(1.5), ValidationError),
    ("text events", changed(DIAGRAM_JSON, events=["12b", "22a", "12c"]), ValidationError),
    ("object events", changed(DIAGRAM_JSON, n=2, events={"12a": None}), ValidationError),
    ("array event label", changed(DIAGRAM_JSON, events=[[1, 2, ["P"]]] + DIAGRAM_JSON["events"][1:]),
     ValidationError),
    ("boolean event label", changed(DIAGRAM_JSON, events=[[1, 2, True]] + DIAGRAM_JSON["events"][1:]),
     ValidationError),
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
    ("chord off its path's ends", changed(DRAWING, chords=[DRAWING["chords"][0], [0, 0]]
     + DRAWING["chords"][2:]), ValidationError),
    ("empty wire path", changed(DRAWING, wire_paths=[[]] + DRAWING["wire_paths"][1:]),
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
    ("boolean edge end", changed(SCHEME, edges=[[0, True]] + SCHEME["edges"][1:]), ValidationError),
    # a line tag is a label or null, as a vertex is a label
    ("array line tag", changed(SCHEME, lines=[[1]] + SCHEME["lines"][1:]), ValidationError),
    ("object line tag", changed(SCHEME, lines=SCHEME["lines"][:-1] + [{"a": 1}]), ValidationError),
    ("array vertex", changed(SCHEME, vertices=[[1]] + SCHEME["vertices"][1:]), ValidationError),
    ("null vertex", changed(SCHEME, vertices=[None] + SCHEME["vertices"][1:]), ValidationError),
    ("null lines", changed(SCHEME, lines=None), ValidationError),
    ("no line per edge", changed(SCHEME, lines=[]), ValidationError),
    # a well-formed document of an invalid map: the map's own error
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


def test_a_refusal_names_the_refused_field():
    for loader, data, message in [
        (drawing_from_json_dict, changed(DRAWING, chords=[[True, 1]]), "chords[0][0]: expected an integer, got True"),
        (diagram_from_json_dict, changed(DIAGRAM_JSON, events=[[1, 2, None], [2, "x", None]]),
         "events[1][1]: malformed value: "),
        (scheme_from_json_dict, changed(SCHEME, lines=[None, [1]]), "lines[1]: expected a label, got list"),
        (sequence_from_json_dict, changed(SEQUENCE, designated="13"), "designated: expected an array"),
        (drawing_from_json_dict, without(DRAWING, "positions"), "missing field 'positions'"),
    ]:
        with pytest.raises(ValidationError) as caught:
            loader(data)
        assert str(caught.value).startswith(message)


def with_dart(row, k, dart):
    """The dipole of four parallel edges from u to v, its rotation row
    ``row`` holding ``dart`` at position ``k``."""
    rows = [[[0, 0], [1, 0], [2, 0], [3, 0]], [[3, 1], [2, 1], [1, 1], [0, 1]]]
    rows[row][k] = dart
    return {"vertices": ["u", "v"], "edges": [[0, 1]] * 4, "rotations": rows, "signature": [1] * 4}


# Each faulty pair folds to the int dart 2e + end it replaces, so a reader
# that folded before checking e and end would load the dipole.
DART_FAULTS = [
    ("end 2", with_dart(0, 3, [2, 2]), "rotations[0][3]: malformed dart [2, 2]"),
    ("end -1", with_dart(1, 3, [1, -1]), "rotations[1][3]: malformed dart [1, -1]"),
    ("negative edge", with_dart(0, 0, [-1, 2]), "rotations[0][0]: malformed dart [-1, 2]"),
    ("edge past the last", with_dart(0, 3, [4, -2]), "rotations[0][3]: malformed dart [4, -2]"),
]


@pytest.mark.parametrize(
    "data, message", [row[1:] for row in DART_FAULTS], ids=[row[0] for row in DART_FAULTS]
)
def test_scheme_reader_refuses_each_dart_fault_with_its_message(data, message):
    scheme_from_json_dict(with_dart(0, 0, [0, 0]))  # the dipole itself loads
    with pytest.raises(ValidationError) as caught:
        scheme_from_json_dict(data)
    assert type(caught.value) is ValidationError and str(caught.value) == message


def test_map_errors_are_not_rewrapped():
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


def test_edge_ends_take_integral_numbers():
    edges = [[float(u), v] for u, v in SCHEME["edges"]]
    assert scheme_from_json_dict(changed(SCHEME, edges=edges)) == scheme_from_json_dict(SCHEME)
    assert scheme_from_json_dict(without(SCHEME, "lines")).lines == (None,) * len(SCHEME["edges"])


def test_read_checks_and_converts_in_one_walk():
    shape = {"n": as_int, "rows": [(as_int, as_text_or_null)], "names?": {str: [as_text]}}
    assert read({"n": "3", "rows": [[1, None], ["2", 7]], "other": object()}, shape) == {
        "n": 3,
        "rows": ((1, None), (2, "7")),
    }
    assert read({"n": 1, "rows": [], "names": {"a": [1.5, "b"]}}, shape)["names"] == {"a": ("1.5", "b")}
    for value in (
        [],
        {"rows": []},
        {"n": 1, "rows": [[1]]},
        {"n": 1, "rows": "12"},
        {"n": None, "rows": []},
        {"n": float("inf"), "rows": []},
        {"n": 1, "rows": [], "names": {"a": "b"}},
        {"n": 1, "rows": [], "names": None},
    ):
        with pytest.raises(ValidationError):
            read(value, shape)
    with pytest.raises(ValidationError, match=r"^names\.a\[1\]: expected a label, got NoneType$"):
        read({"n": 1, "rows": [], "names": {"a": ["b", None]}}, shape)


# -- the type-swap sweep ---------------------------------------------------------

SWAPS = [None, True, 1.5, -1, 0, 10**30, "x", "", [], {}, [[1]], [1], {"a": 1}, float("nan")]


def fields(doc, path=()):
    """The path of every value under a key, and of the first and last entry
    of every array, depth first."""
    if isinstance(doc, dict):
        entries = list(doc)
    elif isinstance(doc, list):
        entries = sorted({0, len(doc) - 1}) if doc else []
    else:
        return
    for key in entries:
        yield path + (key,)
        yield from fields(doc[key], path + (key,))


def swapped(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {**doc, head: swapped(doc[head], rest, value)}
    return [swapped(x, rest, value) if i == head else x for i, x in enumerate(doc)]


def use_sequence(seq):
    classify(seq)
    seq.permutation_before(len(seq.moves))
    sequence_to_json_dict(seq)


def use_scheme(scheme):
    trace_and_summarize(scheme)
    straight_ahead_walks(scheme)
    fingerprint(scheme)
    scheme_to_json_dict(scheme)


def use_diagram(diagram):
    use_sequence(diagram)
    trace_faces_disk(diagram)
    sweep_digraph(diagram)
    triangle_moves(diagram)
    removable_digons(diagram)
    diagram_to_json_dict(diagram)
    use_scheme(scheme_from_realization(diagram))


SWEEP = [
    (SEQUENCE, sequence_from_json_dict, use_sequence),
    (DIAGRAM_JSON, diagram_from_json_dict, use_diagram),
    (SCHEME, scheme_from_json_dict, use_scheme),
    (DRAWING, drawing_from_json_dict, drawing_to_json_dict),
]


def test_every_swapped_field_loads_and_serves_or_is_refused_typed():
    """Each mutant either raises a QuasilineError, when loaded or when
    used, or loads and survives every call; no other exception escapes."""
    escapes, count = [], 0
    for doc, load, use in SWEEP:
        for path in fields(doc):
            for value in SWAPS:
                count += 1
                try:
                    use(load(swapped(doc, path, value)))
                except QuasilineError:
                    pass
                except Exception as exc:
                    escapes.append((load.__name__, path, value, repr(exc)))
    assert count == 1050
    assert escapes == []
