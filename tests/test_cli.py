import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

from quasiline.cli import COMMANDS, main
from quasiline.sequences import sequence_from_json_dict
from quasiline.wiring import diagram_from_json_dict, diagram_to_json_dict
from quasiline.wiring.straighten import drawing_from_json_dict

from oracles import (
    PAPPUS_EUCLIDEAN_LINES,
    PAPPUS_LABELS,
    PAPPUS_POINTS,
    FANO_LINES,
    WIDE_CHART_LINES,
    as_diagram,
    random_generalized_sequence,
)

FANO_TEXT = "".join(" ".join(line) + "\n" for line in FANO_LINES)
TRIANGLE_TEXT = "ab: a b\nbc: b c\nca: c a\n"
DIGON_TEXT = "A: p q r\nB: p q r\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "fano.lines").write_text(FANO_TEXT)
    (tmp_path / "triangle.lines").write_text(TRIANGLE_TEXT)
    (tmp_path / "digon.lines").write_text(DIGON_TEXT)
    (tmp_path / "pappus.euclid.json").write_text(
        json.dumps(
            {
                "lines": [[str(x) for x in row] for row in PAPPUS_EUCLIDEAN_LINES],
                "points": [[str(x) for x in p] for p in PAPPUS_POINTS],
                "point_labels": PAPPUS_LABELS,
            }
        )
    )
    return tmp_path


def test_validate_fano(workdir, capsys):
    assert main(["validate", str(workdir / "fano.lines"), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "lineal" in out and "(7_3)" in out


def test_validate_triangle(workdir, capsys):
    assert main(["validate", str(workdir / "triangle.lines"), "--format", "text"]) == 0
    assert "(3_2)" in capsys.readouterr().out


def test_validate_malformed_is_parse_error(workdir):
    bad = workdir / "bad.lines"
    bad.write_text("name:\n")
    assert main(["validate", str(bad)]) == 3


def test_validate_degree_failure_exit_2(workdir):
    bad = workdir / "deg.lines"
    bad.write_text("l: a b\nm: a c\n")  # b and c lie on one line each
    assert main(["validate", str(bad)]) == 2


def test_missing_file_exit_2(workdir):
    assert main(["validate", str(workdir / "nope.lines")]) == 2


@pytest.mark.parametrize(
    "name, content, code",
    [
        ("bad.seq.json", '{"n": 3, "moves": [[1, "x"]]}', 2),
        ("bad.euclid.json", '{"lines": [["a", "1", "0"], ["1", "0", "0"]]}', 2),
        ("dir.lines", None, 2),
        ("latin1.lines", b"L1: caf\xe9 b\nL2: caf\xe9 c\n", 3),
        ("number.wd.json", "5", 2),
        ("nested.wd.json", '{"diagram": 5}', 2),
        ("deep.wd.json", "[" * 100000, 3),
        ("infinite.seq.json", '{"n": 1e400, "moves": []}', 2),
        ("huge.seq.json", '{"n": 10000000000000000000, "moves": [[1, 2]]}', 4),
        ("wide.seq.json", '{"n": 10000000000000000000, "moves": [[1, 10000000000000000000]]}', 2),
        ("labels.euclid.json", '{"lines": [["1", "0", "0"], ["0", "1", "0"]], "point_labels": 3}',
         2),
        ("exponent.euclid.json", '{"lines": [["1e2000000", "1", "0"], ["1", "0", "0"]]}', 2),
        ("digits.seq.json", '{"n": 1' + "0" * 5000 + ', "moves": [[1, 2]]}', 3),
        ("rows.euclid.json", '{"lines": ["100", "010"]}', 2),
        ("text.seq.json", '{"n": 3, "moves": ["12", "22", "12"], "designated": "13"}', 2),
        ("nolabels.euclid.json",
         '{"lines": [["1", "0", "0"], ["0", "1", "0"]], "points": [["0", "0"]], "point_labels": null}',
         2),
        ("arraylabel.euclid.json",
         '{"lines": [["1", "0", "0"], ["0", "1", "0"]], "points": [["0", "0"]], "point_labels": [[1]]}',
         2),
    ],
    ids=[
        "non-integer-move",
        "non-rational-coefficient",
        "directory",
        "non-utf8",
        "top-level-number",
        "nested-non-object",
        "nested-too-deep",
        "infinite-size",
        "too-few-crossings",
        "too-many-wires",
        "labels-not-a-list",
        "exponent-over-digit-limit",
        "integer-over-digit-limit",
        "line-not-an-array",
        "moves-as-strings",
        "null-labels",
        "array-label",
    ],
)
def test_bad_input_maps_to_exit_code(workdir, capsys, name, content, code):
    path = workdir / name
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert main(["wiring", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("wiring: ") and "Traceback" not in err


@pytest.mark.parametrize("start", ["true", "1.5"])
def test_map_refuses_a_non_integer_event_start(workdir, capsys, start):
    """A JSON boolean is not an integer: it exits 2, as a fraction does."""
    path = workdir / "bad.wd.json"
    path.write_text(f'{{"n": 3, "events": [[{start}, 2, "P"], [2, 2, "Q"], [{start}, 2, "R"]]}}')
    assert main(["map", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"map: invalid input: events[0][0]: expected an integer, got {start.title()}")
    assert "Traceback" not in err


def test_wiring_beyond_the_first_charts_exits_0(workdir, capsys):
    # no chart (p, q, 1) with |p|, |q| <= 7 separates these crossings
    path = workdir / "wide.euclid.json"
    path.write_text(json.dumps({"lines": [[str(x) for x in row] for row in WIDE_CHART_LINES]}))
    assert main(["wiring", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert diagram_from_json_dict(out["diagram"]).n == 16


def test_realize_emits_sequence_and_points(workdir):
    out = workdir / "fano.seq.json"
    assert main(["realize", str(workdir / "fano.lines"), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    seq = sequence_from_json_dict(data["sequence"])
    assert seq.n == 7
    assert len(data["points"]) == 7
    assert "seed" not in data


def test_sequence_input_is_checked_once(workdir, monkeypatch):
    """A ``.seq.json`` input, bare or wrapped as ``realize`` writes it, is
    built once as a diagram: one sequence check per load."""
    from quasiline.cli import load_diagram
    from quasiline.sequences import PermSequence

    out = workdir / "fano.seq.json"
    assert main(["realize", str(workdir / "fano.lines"), "-o", str(out)]) == 0
    bare = workdir / "bare.seq.json"
    bare.write_text(json.dumps(json.loads(out.read_text())["sequence"]))
    checked = []
    check = PermSequence.__post_init__

    def counted(seq):
        checked.append(type(seq).__name__)
        check(seq)

    monkeypatch.setattr(PermSequence, "__post_init__", counted)
    for path in (out, bare):
        checked.clear()
        d = load_diagram(str(path))
        assert checked == ["GeneralizedWiringDiagram"]
        assert d.n == 7 and len(d.designated_events()) == 7


def test_wiring_json_roundtrips(workdir):
    out = workdir / "fano.wd.json"
    assert main(["wiring", str(workdir / "fano.lines"), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    d = diagram_from_json_dict(data["diagram"])
    assert d.n == 7
    # a diagram JSON is accepted back as input
    out2 = workdir / "sweep.json"
    assert main(["sweep", str(out), "-o", str(out2)]) == 0
    order = json.loads(out2.read_text())["order"]
    assert sorted(order) == list(range(d.event_count))


def test_wiring_svg_well_formed(workdir):
    out = workdir / "fano.svg"
    assert main(["wiring", str(workdir / "fano.lines"), "--format", "svg", "-o", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 7
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    filled = [c for c in circles if c.get("fill") == "#111111"]
    open_ = [c for c in circles if c.get("fill") == "white"]
    assert len(filled) == 7 and len(open_) >= 1


def test_map_fano(workdir):
    out = workdir / "fano.map.json"
    assert main(["map", str(workdir / "fano.lines"), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["summary"]["V"] == 7
    assert data["summary"]["E"] == 21
    assert not data["summary"]["orientable"]


def test_straighten_json_and_svg(workdir):
    out = workdir / "pappus.drawing.json"
    assert main(["straighten", str(workdir / "pappus.euclid.json"), "-o", str(out)]) == 0
    drawing = drawing_from_json_dict(json.loads(out.read_text())["drawing"])
    assert drawing.n == 9
    svg = workdir / "pappus.svg"
    assert main(
        ["straighten", str(workdir / "pappus.euclid.json"), "--format", "svg", "-o", str(svg)]
    ) == 0
    root = ET.fromstring(svg.read_text())
    assert root.get("data-scale") is not None


def test_straighten_digons_exit_4(workdir, capsys):
    code = main(["straighten", str(workdir / "digon.lines")])
    assert code == 4
    assert "digon" in capsys.readouterr().err.lower()


def test_svg_geometry_matches_rational_drawing(workdir):
    from quasiline.cli import DRAWING_SCALE, load_diagram
    from quasiline.wiring import straighten

    svg_path = workdir / "tri.svg"
    assert main(
        ["straighten", str(workdir / "triangle.lines"), "--format", "svg", "-o", str(svg_path)]
    ) == 0
    drawing = straighten(load_diagram(str(workdir / "triangle.lines")))
    root = ET.fromstring(svg_path.read_text())
    assert float(root.get("data-scale")) == DRAWING_SCALE
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    got = sorted((float(c.get("cx")), float(c.get("cy"))) for c in circles)
    want = sorted(
        (float(x) * DRAWING_SCALE, -float(y) * DRAWING_SCALE) for x, y in drawing.positions
    )
    for (gx, gy), (wx, wy) in zip(got, want):
        assert abs(gx - wx) <= 0.005 * max(1.0, abs(wx))
        assert abs(gy - wy) <= 0.005 * max(1.0, abs(wy))


def test_compare_digon_variant_equal(workdir, capsys):
    base = workdir / "fano.wd.json"
    assert main(["wiring", str(workdir / "fano.lines"), "-o", str(base)]) == 0
    data = json.loads(base.read_text())["diagram"]
    from quasiline.wiring import diagram_to_json_dict, insert_digon

    d = diagram_from_json_dict(data)
    moved = insert_digon(d, (1, 2), 0)
    variant = workdir / "variant.wd.json"
    variant.write_text(json.dumps(diagram_to_json_dict(moved)))
    assert main(["compare", str(base), str(variant), "--format", "text"]) == 0
    assert capsys.readouterr().out.strip() == "equal"


def test_outputs_byte_identical(workdir):
    a, b = workdir / "a.json", workdir / "b.json"
    for out in (a, b):
        assert main(["realize", str(workdir / "fano.lines"), "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    s1, s2 = workdir / "a.svg", workdir / "b.svg"
    for out in (s1, s2):
        assert main(["wiring", str(workdir / "fano.lines"), "--format", "svg", "-o", str(out)]) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_plan_override(workdir):
    plan = workdir / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "point_order": ["p", "q", "r"],
                "point_line_orders": {"q": ["B", "A"]},
            }
        )
    )
    out = workdir / "digon.seq.json"
    assert main(
        ["realize", str(workdir / "digon.lines"), "--plan", str(plan), "-o", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert data["unwanted_crossings"] == 0


@pytest.mark.parametrize(
    "plan",
    [
        5,
        {"point_order": 5},
        {"point_order": [["p"], "q", "r"]},
        {"line_numbering": None},
        {"point_line_orders": ["q"]},
        {"point_line_orders": {"q": "BA"}},
    ],
)
def test_malformed_plan_exit_2(workdir, capsys, plan):
    path = workdir / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["realize", str(workdir / "digon.lines"), "--plan", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("realize: invalid input") and "Traceback" not in err


def test_plan_labels_are_read_as_text(workdir, capsys):
    """A JSON number in a plan names the line or point with that text."""
    (workdir / "numbered.lines").write_text("1: p q r\n2: p q r\n")
    plan = workdir / "plan.json"
    plan.write_text(json.dumps({"line_numbering": [2, 1], "point_line_orders": {"q": [1, 2]}}))
    assert main(["realize", str(workdir / "numbered.lines"), "--plan", str(plan)]) == 0
    assert json.loads(capsys.readouterr().out)["line_numbering"] == ["2", "1"]


@pytest.mark.parametrize(
    "command, fmt",
    [
        ("validate", "svg"),
        ("realize", "text"),
        ("realize", "svg"),
        ("wiring", "text"),
        ("sweep", "svg"),
        ("map", "text"),
        ("map", "svg"),
        ("straighten", "text"),
        ("compare", "svg"),
    ],
)
def test_format_a_subcommand_does_not_emit_is_a_usage_error(workdir, capsys, command, fmt):
    inputs = [str(workdir / "fano.lines")] * COMMANDS[command][1]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--format", fmt])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_plan_is_a_usage_error_for_validate(workdir, capsys):
    """validate realizes nothing, so it has no --plan option; a subcommand
    that realizes reads the plan, and a missing plan file exits 2 there."""
    missing = str(workdir / "missing.plan.json")
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(workdir / "fano.lines"), "--plan", missing])
    assert exc.value.code == 2
    assert "unrecognized arguments: --plan" in capsys.readouterr().err
    assert main(["map", str(workdir / "fano.lines"), "--plan", missing]) == 2
    assert capsys.readouterr().err.startswith("map: cannot access")


# SHA-256 of the output bytes of the README command lines on the workdir
# files.  Outputs are exact, so any changed byte fails here; a change that
# alters an output on purpose records the new digest and says why.
GOLDEN_OUTPUTS = {
    ("validate", "fano.lines", "json"): "760f953dc3571577f2f0e881cd2ee2c8426a2db42a68eecca5527a30eb3af0e5",
    ("validate", "fano.lines", "text"): "55e2235b0389abb70ff78ab1dce44e8eb3aefadb08b4855e419a2e764df7624c",
    ("validate", "triangle.lines", "text"): "133a70c85451e9f46dacde731d92196b92f6ecf3b855c710859c3bdcec377d17",
    ("realize", "fano.lines", "json"): "b030d146c4fcbcb9e520b588ece7a3fdfca48f6394fd767eaeca5ff494df7c53",
    ("realize", "triangle.lines", "json"): "e1f25b9df24b084b734bd0f25fdcd38446b195cbc69bf1ade44fe362efb7ec74",
    ("wiring", "fano.lines", "json"): "6db8a8f971ff371183d271a2914cefbd0a4511991a9ab925dc869d9c4a934a18",
    ("wiring", "fano.lines", "svg"): "c05baef0db59b1f373313e8fab70e41b9cc43836390c22ede319b4d357cf5b45",
    ("wiring", "pappus.euclid.json", "json"): "83e23fa767f9654eaeb7ea3ba3ec48a629887c1fb0afe9b4059808699815d070",
    ("wiring", "pappus.euclid.json", "svg"): "a2d3909c4c42698749444199ef64d1c793ecdec3e58ffab3933054c6f7d27169",
    ("sweep", "fano.lines", "json"): "12b1588eb982e5fec4aeaa4a6e1171cf1b8405f83bedbee468f441b77a0f6d7b",
    ("sweep", "fano.lines", "text"): "a8b3267ec96ca256957a925d747dd7840103f8bbb1b730dc790dda4624f903cc",
    ("sweep", "pappus.euclid.json", "json"): "5b255a1146a73f1274c97ceffb6f334d4ea223539a8825b622ebc259b9020c2c",
    ("sweep", "pappus.euclid.json", "text"): "c88a35577591b1a79578a9b5c479cebbdd8ddfc04f6ba1c2d530783a5ce21820",
    ("map", "fano.lines", "json"): "b1bc6f2301076fa461db2f4a452e7e25508d5f3cfdf0917a35a9fc84f8b0636b",
    ("map", "pappus.euclid.json", "json"): "5f4001bd464685e90a38d00afa34e53f11cd420ea88b54989133f3205154a265",
    ("straighten", "pappus.euclid.json", "json"): "8cb3871668fb569ea9da2889f79c5c5925fc4b7503de9d75037d8d2f834ac35f",
    ("straighten", "pappus.euclid.json", "svg"): "d9777d46f4a6e6e7a50b658b107e09b17f4eb5bb00d1e52226c5f5ff428d5c49",
    ("straighten", "triangle.lines", "json"): "5d6b36fb4b0cae1b69f7a89f034e9609518c28c473ac43130e74e531784f60ab",
    ("compare", "fano.lines pappus.euclid.json", "json"): "433e3c10c0f23eb8534c89a09863a6e75d3896e4bd82491e6160f0f17de74477",
    ("compare", "fano.lines pappus.euclid.json", "text"): "972979ebb0d1ca111c18859c38d8683b4fed52f3333c8c333da0f13ed718de78",
    ("compare", "pappus.euclid.json pappus.euclid.json", "text"): "1907d592edca123512edf021ad7230b31ee3b68b2e38b78b07acd5e85256a3d6",
}


@pytest.mark.parametrize(
    "command, inputs, fmt", list(GOLDEN_OUTPUTS), ids=lambda x: x.replace(" ", "+")
)
def test_cli_output_bytes_are_golden(workdir, capsys, command, inputs, fmt):
    paths = [str(workdir / name) for name in inputs.split()]
    assert main([command, *paths, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GOLDEN_OUTPUTS[command, inputs, fmt]


# SHA-256 of ``wiring --format svg`` on nine seeded generalized diagrams
# on 2..10 wires, concatenated: random windows of any length, then
# adjacent transpositions up to the reversal.  Fano's SVG is pinned in
# GOLDEN_OUTPUTS.
GOLDEN_GENERALIZED_WIRING_SVG = "5d6a36cfdd3554708c27c9d36fe22f417355804b7fe06e9fcc05048ef68008f1"


def test_wiring_svg_bytes_are_golden(workdir, capsys):
    rng = random.Random(16)
    out = b""
    for n in range(2, 11):
        seq = random_generalized_sequence(rng, n, extra_moves=6, designate=True)
        path = workdir / f"generalized{n}.wd.json"
        path.write_text(json.dumps({"diagram": diagram_to_json_dict(as_diagram(seq))}))
        assert main(["wiring", str(path), "--format", "svg"]) == 0
        out += capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GOLDEN_GENERALIZED_WIRING_SVG


def test_a_text_stream_as_standard_output_gets_text(workdir, monkeypatch):
    """A caller may replace sys.stdout by a stream without a byte buffer."""
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(["validate", str(workdir / "fano.lines"), "--format", "text"]) == 0
    out = sys.stdout.getvalue()
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OUTPUTS["validate", "fano.lines", "text"]


# A C locale with an ASCII standard output, in which Python neither
# coerces the locale nor switches to UTF-8 mode, and standard output is
# buffered, as in a run without a terminal.  An in-process test reads the
# output through a UTF-8 capture and cannot see the locale, so these
# tests run the command line in a fresh interpreter.
ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
                "PYTHONIOENCODING": "ascii", "PYTHONUNBUFFERED": ""}


def run_cli(workdir, *argv, stdout=subprocess.PIPE, preexec_fn=None):
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "quasiline.cli", *argv], cwd=workdir,
                          env={**os.environ, **ASCII_LOCALE, "PYTHONPATH": src}, stdout=stdout,
                          stderr=subprocess.PIPE, preexec_fn=preexec_fn, timeout=60)


# SHA-256 of ``wiring --format svg`` on the Fano plane with point labels
# é1 ... é7, as a run in a UTF-8 locale writes it.
GOLDEN_ACCENTED_FANO_SVG = "33e18e245d8fd985d2ef305907b0d90464293a8ca2d6ce306239a65e9c7d15d0"


@pytest.mark.parametrize("output", [[], ["-o", "out.svg"]], ids=["stdout", "output-file"])
def test_outputs_are_utf8_whatever_the_locale(workdir, output):
    text = "".join(" ".join("é" + p for p in line) + "\n" for line in FANO_LINES)
    (workdir / "accented.lines").write_text(text, encoding="utf-8")
    done = run_cli(workdir, "wiring", "accented.lines", "--format", "svg", *output)
    assert (done.returncode, done.stderr) == (0, b"")
    out = (workdir / "out.svg").read_bytes() if output else done.stdout
    assert "é1".encode("utf-8") in out
    assert hashlib.sha256(out).hexdigest() == GOLDEN_ACCENTED_FANO_SVG


# One GOLDEN_OUTPUTS pair per subcommand, in its text or SVG format where
# it has one.
ASCII_LOCALE_GOLDEN = [
    ("validate", "fano.lines", "text"),
    ("realize", "fano.lines", "json"),
    ("wiring", "pappus.euclid.json", "svg"),
    ("sweep", "fano.lines", "text"),
    ("map", "fano.lines", "json"),
    ("straighten", "pappus.euclid.json", "svg"),
    ("compare", "fano.lines pappus.euclid.json", "text"),
]


@pytest.mark.parametrize(
    "command, inputs, fmt", ASCII_LOCALE_GOLDEN, ids=lambda x: x.replace(" ", "+")
)
def test_golden_outputs_under_an_ascii_locale(workdir, command, inputs, fmt):
    done = run_cli(workdir, command, *inputs.split(), "--format", fmt)
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN_OUTPUTS[command, inputs, fmt]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "output, target",
    [(["-o", "/dev/full"], "/dev/full"), ([], "standard output")],
    ids=["output-file", "stdout"],
)
def test_a_failed_write_names_its_target(workdir, output, target):
    with open("/dev/full", "wb") as full:
        done = run_cli(workdir, "validate", "fano.lines", *output, stdout=full)
    assert done.returncode == 2
    assert done.stderr.decode() == f"validate: cannot access {target}: No space left on device\n"


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
def test_a_closed_standard_output_exits_2_with_a_message(workdir):
    done = run_cli(workdir, "validate", "fano.lines", stdout=None, preexec_fn=lambda: os.close(1))
    assert done.returncode == 2
    assert done.stderr.decode() == "validate: cannot access standard output: Bad file descriptor\n"
