"""Property test: on arbitrary input files the command line exits with a
documented code (0, 2, 3 or 4) and never lets an exception escape.

The payloads are raw bytes, short texts over the ``.lines`` alphabet,
JSON values built from the keys the loaders read, and JSON shaped like
each input format, so that every loader is reached past its parser and
some inputs are valid.  JSON integers stay small: a diagram's size is its
wire count, so a large ``n`` only measures the machine's memory.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from quasiline.cli import main

from oracles import FANO_LINES

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

KEYS = [
    "n", "moves", "designated", "events", "diagram", "sequence", "lines",
    "points", "point_labels", "point_order", "line_numbering",
    "point_line_orders", "1", "L1",
]

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.sampled_from([0.5, 1e400, float("nan")])
    | st.text("pqL1/0-: ", max_size=4)
)

JSON_VALUES = st.recursive(
    LEAVES,
    lambda kids: (
        st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=4)
    ),
    max_leaves=16,
)

SMALL = st.integers(-1, 5)

SHAPED = st.one_of(
    st.fixed_dictionaries({"n": SMALL, "moves": st.lists(st.tuples(SMALL, SMALL), max_size=8)}),
    st.fixed_dictionaries(
        {
            "n": SMALL,
            "events": st.lists(
                st.tuples(SMALL, SMALL, st.none() | st.sampled_from("pq")), max_size=8
            ),
        }
    ),
    st.fixed_dictionaries(
        {
            "lines": st.lists(st.tuples(*[st.integers(-3, 3).map(str)] * 3), max_size=5),
            "points": st.lists(st.tuples(*[st.integers(-2, 2).map(str)] * 2), max_size=2),
        }
    ),
)

ROWS = st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4), min_size=1, max_size=5)

PAYLOADS = st.one_of(
    st.binary(max_size=80),
    st.text("abpqL1 :#\n", max_size=60).map(str.encode),
    ROWS.map(lambda rows: "".join(" ".join(row) + "\n" for row in rows).encode()),
    (JSON_VALUES | SHAPED).map(lambda value: json.dumps(value).encode()),
)

FANO_TEXT = "".join(" ".join(line) + "\n" for line in FANO_LINES)


@PROPERTY
@given(data=PAYLOADS, plan=PAYLOADS)
def test_cli_exits_with_a_documented_code_on_arbitrary_files(data, plan):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        plan_path = root / "plan.json"
        plan_path.write_bytes(plan)
        fano = root / "fano.lines"
        fano.write_text(FANO_TEXT)
        runs = [["realize", str(fano), "--plan", str(plan_path)]]
        for name in ("in.lines", "in.seq.json", "in.wd.json", "in.euclid.json"):
            path = root / name
            path.write_bytes(data)
            runs += [["sweep", str(path)], ["map", str(path)]]
        lines = str(root / "in.lines")
        runs += [
            ["validate", lines],
            ["realize", lines],
            ["sweep", lines, "--plan", str(plan_path)],
        ]
        for argv in runs:
            assert main([*argv, "-o", str(root / "out")]) in {0, 2, 3, 4}, argv
