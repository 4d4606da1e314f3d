"""Command line front end: validation, realization, wiring diagrams,
sweeps, surface maps, straightening, and SVG figure emission.

One binary with subcommands; all outputs are deterministic (nothing is
random, JSON keys are sorted, SVG attributes are emitted in fixed
order).  Each subcommand returns its result, and :func:`write_result`
writes it as UTF-8 whatever the locale, just as every input is read as
UTF-8.  Exit codes: 0 ok, 2 validation failure, unreadable file or an
output that cannot be written, 3 parse error (malformed text or JSON, or
bytes that are not UTF-8), 4 precondition error, 1 internal error.

File formats: ``*.lines`` incidence text, ``*.seq.json`` move sequences,
``*.wd.json`` wiring diagrams, ``*.euclid.json`` Euclidean line input,
``*.map.json`` surface map summaries, ``*.drawing.json`` straight-line
drawings, ``*.svg`` figures.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import sys
from pathlib import Path
from typing import Optional, Sequence
from xml.etree import ElementTree as ET

from .errors import (
    ParseError,
    PreconditionError,
    QuasilineError,
    ValidationError,
)
from .incidence import (
    IncidenceStructure,
    configuration_signature,
    is_lineal,
    levi_graph,
    parse_lines_text,
)
from .jsonshape import MAX_DIGITS, as_object, as_text, read
from .realization import RealizationPlan, default_plan, realize, unwanted_crossing_count
from .sequences import sequence_json_fields, sequence_to_json_dict
from .surface import (
    fingerprint,
    scheme_from_realization,
    scheme_to_json_dict,
    summary_to_json_dict,
    trace_and_summarize,
)
from .wiring import (
    GeneralizedWiringDiagram,
    diagram_from_json_dict,
    diagram_from_lines,
    diagram_from_realization,
    diagram_to_json_dict,
    drawing_to_json_dict,
    straighten,
    sweep_digraph,
    topological_sweep,
)
from .wiring.straighten import StraightDrawing

# Wire colours of both SVG figures, cycled by wire number.
PALETTE = (
    "#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910",
    "#17a589", "#7b241c", "#2e4053", "#a04000", "#5d6d7e",
)


# -- input loading -------------------------------------------------------------


def _read_text(path: str) -> str:
    """The file as UTF-8 text, one leading byte-order mark dropped; an
    undecodable byte is reported at its line and column after the mark."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(f"not UTF-8: {exc.reason}", line, column) from exc


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"an integer literal has more than {MAX_DIGITS} digits")
    return int(text)


def _load_json(path: str):
    try:
        return json.loads(_read_text(path), parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply", 1) from exc
    except ValueError as exc:  # an integer literal over MAX_DIGITS
        raise ParseError(str(exc), 1) from exc


def load_structure(path: str) -> IncidenceStructure:
    return parse_lines_text(_read_text(path))


def load_plan(structure: IncidenceStructure, path: Optional[str]) -> RealizationPlan:
    base = default_plan(structure)
    if path is None:
        return base
    labels = [as_text]
    doc = read(_load_json(path), {"line_numbering?": labels, "point_order?": labels,
                                  "point_line_orders?": {str: labels}})
    return RealizationPlan(
        doc.get("line_numbering", base.line_numbering),
        doc.get("point_order", base.point_order),
        {**base.point_line_orders, **doc.get("point_line_orders", {})},
    )


def load_diagram(path: str, plan_path: Optional[str] = None) -> GeneralizedWiringDiagram:
    """Accept incidence text, sequence JSON, diagram JSON, or Euclidean JSON."""
    name = Path(path).name
    if name.endswith(".lines"):
        structure = load_structure(path)
        return diagram_from_realization(realize(structure, load_plan(structure, plan_path)))
    data = _load_json(path)
    # outputs of other subcommands are accepted back as inputs
    wrapped = read(data, {"diagram?": as_object, "sequence?": as_object})
    data = wrapped.get("diagram", wrapped.get("sequence", data))
    if name.endswith(".seq.json") or "moves" in data:
        return GeneralizedWiringDiagram(*sequence_json_fields(data))
    if name.endswith(".euclid.json") or ("lines" in data and "events" not in data):
        # a coefficient is read as text, so a JSON number is taken exactly
        doc = read(data, {"lines": [[as_text]], "points?": [[as_text]], "point_labels?": [as_text]})
        return diagram_from_lines(doc["lines"], doc.get("points", ()), doc.get("point_labels"))
    return diagram_from_json_dict(data)


# -- output --------------------------------------------------------------------


def write_result(result, output: Optional[str]) -> None:
    """The one way out of the CLI: a dict as sorted, indented JSON, a
    string as it is, encoded as UTF-8 whatever the locale and written to
    the file ``output`` or to standard output.  A failed write raises
    ``OSError`` naming the file or "standard output", and a standard
    output that failed is closed."""
    if isinstance(result, dict):
        result = json.dumps(result, sort_keys=True, indent=2) + "\n"
    try:
        if output is not None:
            Path(output).write_bytes(result.encode("utf-8"))
        elif sys.stdout is None:  # the process started with standard output closed
            raise OSError(errno.EBADF, "Bad file descriptor")
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.write(result.encode("utf-8"))
            sys.stdout.buffer.flush()
        else:  # a text stream such as io.StringIO
            sys.stdout.write(result)
    except OSError as exc:
        if output is None and sys.stdout is not None:
            # what could not be written is dropped, not retried at exit
            with contextlib.suppress(OSError):
                sys.stdout.close()
        raise OSError(exc.errno, exc.strerror, output or "standard output") from exc


# -- SVG -----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _svg_root(data: dict, width: float, height: float, x0: float = 0.0, y0: float = 0.0) -> ET.Element:
    """The ``<svg>`` root of a figure ``width`` by ``height`` whose view box
    starts at (x0, y0), with the figure's ``data-*`` attributes last."""
    return ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": _fmt(width),
        "height": _fmt(height),
        "viewBox": " ".join(map(_fmt, (x0, y0, width, height))),
        **data,
    })


def diagram_svg(diagram: GeneralizedWiringDiagram) -> str:
    """Schematic wiring figure: wires as polylines, designated crossings
    as filled disks, unwanted crossings as open circles."""
    sx, sy, margin = 60.0, 36.0, 24.0
    width = margin * 2 + sx * (diagram.event_count + 1)
    height = margin * 2 + sy * (diagram.n - 1)

    def y_of(track: int) -> float:
        return margin + sy * (track - 1)

    def x_of(slot: int) -> float:
        return margin + sx * (slot + 0.5)

    svg = _svg_root({"data-kind": "wiring-diagram"}, width, height)
    for w in range(1, diagram.n + 1):
        track = w
        pts = [(margin * 0.3, y_of(track))]
        for i in diagram.wire_events(w):
            ev = diagram.moves[i]
            pts.append((x_of(i) - sx * 0.3, y_of(track)))
            track = ev.start + ev.stop - track
            pts.append((x_of(i) + sx * 0.3, y_of(track)))
        pts.append((width - margin * 0.3, y_of(track)))
        ET.SubElement(
            svg,
            "polyline",
            {
                "points": " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts),
                "fill": "none",
                "stroke": PALETTE[(w - 1) % len(PALETTE)],
                "stroke-width": "2",
            },
        )
    for i, ev in enumerate(diagram.moves):
        cy = (y_of(ev.start) + y_of(ev.stop)) / 2
        common = {"cx": _fmt(x_of(i)), "cy": _fmt(cy), "r": "5"}
        if ev.point is not None:
            ET.SubElement(svg, "circle", {**common, "fill": "#111111"})
            ET.SubElement(
                svg,
                "text",
                {"x": _fmt(x_of(i) + 7), "y": _fmt(cy - 7), "font-size": "11"},
            ).text = str(ev.point)
        else:
            ET.SubElement(
                svg,
                "circle",
                {**common, "fill": "white", "stroke": "#111111", "stroke-width": "1.5"},
            )
    return ET.tostring(svg, encoding="unicode") + "\n"


DRAWING_SCALE = 200.0


def drawing_svg(drawing: StraightDrawing) -> str:
    """Straight-line figure: crossing graph edges plus chord rays, scaled
    from the exact rational drawing by the recorded factor."""
    pts = [(float(x) * DRAWING_SCALE, -float(y) * DRAWING_SCALE) for x, y in drawing.positions]
    xs, ys = zip(*pts)
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    ray = span * 0.18
    margin = ray + 20.0
    x0, y0 = min(xs) - margin, min(ys) - margin
    width = (max(xs) - min(xs)) + 2 * margin
    height = (max(ys) - min(ys)) + 2 * margin

    svg = _svg_root({"data-kind": "straight-drawing", "data-scale": _fmt(DRAWING_SCALE)},
                    width, height, x0, y0)

    def seg(a, b, color, dashed=False):
        attrs = {
            "x1": _fmt(a[0]),
            "y1": _fmt(a[1]),
            "x2": _fmt(b[0]),
            "y2": _fmt(b[1]),
            "stroke": color,
            "stroke-width": "1.6",
        }
        if dashed:
            attrs["stroke-dasharray"] = "6 4"
        ET.SubElement(svg, "line", attrs)

    for w, path in enumerate(drawing.wire_paths, start=1):
        color = PALETTE[(w - 1) % len(PALETTE)]
        for u, v in zip(path, path[1:]):
            seg(pts[u], pts[v], color)
        first, last = drawing.chords[w - 1]
        fx, fy = pts[first]
        lx, ly = pts[last]
        dx, dy = lx - fx, ly - fy
        norm = (dx * dx + dy * dy) ** 0.5 or 1.0
        dx, dy = dx / norm, dy / norm
        seg((lx, ly), (lx + dx * ray, ly + dy * ray), color, dashed=True)
        seg((fx, fy), (fx - dx * ray, fy - dy * ray), color, dashed=True)
    for v, p in enumerate(pts):
        ET.SubElement(
            svg,
            "circle",
            {"cx": _fmt(p[0]), "cy": _fmt(p[1]), "r": "3.2", "fill": "#111111"},
        )
    return ET.tostring(svg, encoding="unicode") + "\n"


# -- subcommands -----------------------------------------------------------------
#
# Each handler returns its result, a dict for the JSON formats and the
# text of any other, and main hands it to write_result.


def cmd_validate(args: argparse.Namespace) -> dict | str:
    structure = load_structure(args.inputs[0])
    levi = levi_graph(structure)
    signature = configuration_signature(structure)
    lineal = is_lineal(structure)
    if args.format == "json":
        return {
            "points": len(structure.points),
            "lines": len(structure.lines),
            "flags": len(structure.flags),
            "lineal": lineal,
            "signature": list(signature) if signature else None,
            "levi": {
                "vertices": levi.vertex_count,
                "edges": levi.edge_count,
            },
        }
    verdict = "lineal" if lineal else "not lineal"
    if signature:
        v, r, b, k = signature
        verdict += f", ({v}_{r})" if (v, r) == (b, k) else f", ({v}_{r}, {b}_{k})"
    return (
        f"{verdict}\n"
        f"points={len(structure.points)} lines={len(structure.lines)} flags={len(structure.flags)} "
        f"levi: {levi.vertex_count} vertices, {levi.edge_count} edges\n"
    )


def cmd_realize(args: argparse.Namespace) -> dict:
    structure = load_structure(args.inputs[0])
    r = realize(structure, load_plan(structure, args.plan_path))
    return {
        "sequence": sequence_to_json_dict(r.seq),
        "points": {str(i): str(p) for i, p in sorted(r.point_of_move.items())},
        "line_numbering": [str(l) for l in r.line_numbering],
        "unwanted_crossings": unwanted_crossing_count(r),
    }


def cmd_wiring(args: argparse.Namespace) -> dict | str:
    diagram = load_diagram(args.inputs[0], args.plan_path)
    if args.format == "svg":
        return diagram_svg(diagram)
    return {"diagram": diagram_to_json_dict(diagram)}


def cmd_sweep(args: argparse.Namespace) -> dict | str:
    diagram = load_diagram(args.inputs[0], args.plan_path)
    order = topological_sweep(diagram)
    if args.format == "text":
        return " ".join(str(v) for v in order) + "\n"
    return {
        "order": order,
        "vertices": diagram.event_count,
        "arcs": [list(a) for a in sweep_digraph(diagram)],
    }


def cmd_map(args: argparse.Namespace) -> dict:
    scheme = scheme_from_realization(load_diagram(args.inputs[0], args.plan_path))
    return {
        "summary": summary_to_json_dict(trace_and_summarize(scheme)),
        "scheme": scheme_to_json_dict(scheme),
    }


def cmd_straighten(args: argparse.Namespace) -> dict | str:
    drawing = straighten(load_diagram(args.inputs[0], args.plan_path))
    if args.format == "svg":
        return drawing_svg(drawing)
    return {"drawing": drawing_to_json_dict(drawing)}


def cmd_compare(args: argparse.Namespace) -> dict | str:
    fps = [fingerprint(scheme_from_realization(load_diagram(path, args.plan_path)))
           for path in args.inputs]
    equal = fps[0] == fps[1]
    if args.format == "text":
        return ("equal" if equal else "distinct") + "\n"
    return {"equal": equal, "fingerprints": fps}


# Per subcommand: handler, number of inputs, the output formats it emits
# (the first is the default), whether it may realize its input (and so
# takes --plan), and its help text.
COMMANDS = {
    "validate": (cmd_validate, 1, ("json", "text"), False,
                 "check an incidence file and report lineality and signature"),
    "realize": (cmd_realize, 1, ("json",), True,
                "realize an incidence structure as a move sequence"),
    "wiring": (cmd_wiring, 1, ("json", "svg"), True,
               "produce a generalized wiring diagram (JSON or SVG)"),
    "sweep": (cmd_sweep, 1, ("json", "text"), True,
              "topologically sweep a diagram's crossings"),
    "map": (cmd_map, 1, ("json",), True,
            "compute the surface map summary of a diagram"),
    "straighten": (cmd_straighten, 1, ("json", "svg"), True,
                   "bend-free straight-line drawing of a digon-free diagram"),
    "compare": (cmd_compare, 2, ("json", "text"), True,
                "compare the surface-map fingerprints of two inputs"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiline",
        description="Incidence structures as monotone quasiline arrangements.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, nargs, formats, realizes, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("inputs", nargs=nargs, metavar="input")
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--format", choices=formats, default=formats[0])
        if realizes:
            p.add_argument("--plan", dest="plan_path", default=None)
    return parser


# Exit code and stderr prefix of each typed failure, tried in this order;
# a precondition failure is prefixed by the name of its own type.
FAILURES = (
    (ParseError, 3, "parse error"),
    (PreconditionError, 4, None),
    (ValidationError, 2, "invalid input"),
    (QuasilineError, 1, "internal error"),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        write_result(COMMANDS[args.subcommand][0](args), args.output)
        return 0
    except OSError as exc:
        print(f"{args.subcommand}: cannot access {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except QuasilineError as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in FAILURES if isinstance(exc, kind))
        print(f"{args.subcommand}: {prefix or type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
