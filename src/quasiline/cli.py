"""Command line front end: validation, realization, wiring diagrams,
sweeps, surface maps, straightening, and SVG figure emission.

One binary with subcommands; all outputs are deterministic (nothing is
random, JSON keys are sorted, SVG attributes are emitted in fixed
order).  Exit codes: 0 ok, 2 validation failure or unreadable file,
3 parse error (malformed text or JSON, or bytes that are not UTF-8),
4 precondition error, 1 internal error.

File formats: ``*.lines`` incidence text, ``*.seq.json`` move sequences,
``*.wd.json`` wiring diagrams, ``*.euclid.json`` Euclidean line input,
``*.map.json`` surface map summaries, ``*.drawing.json`` straight-line
drawings, ``*.svg`` figures.
"""

from __future__ import annotations

import argparse
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
from .sequences import sequence_from_json_dict, sequence_to_json_dict
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
    data = Path(path).read_bytes()
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
        data = json.loads(_read_text(path), parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply", 1) from exc
    except ValueError as exc:  # an integer literal over MAX_DIGITS
        raise ParseError(str(exc), 1) from exc
    return data


def load_structure(path: str) -> IncidenceStructure:
    return parse_lines_text(_read_text(path))


def _plan_from_json(structure: IncidenceStructure, data) -> RealizationPlan:
    base = default_plan(structure)
    labels = [as_text]
    doc = read(data, {"line_numbering?": labels, "point_order?": labels,
                      "point_line_orders?": {str: labels}})
    return RealizationPlan(
        doc.get("line_numbering", base.line_numbering),
        doc.get("point_order", base.point_order),
        {**base.point_line_orders, **doc.get("point_line_orders", {})},
    )


def load_plan(structure: IncidenceStructure, path: Optional[str]) -> RealizationPlan:
    if path is None:
        return default_plan(structure)
    return _plan_from_json(structure, _load_json(path))


def _euclid_from_json(data: dict) -> GeneralizedWiringDiagram:
    # a coefficient is read as text, so a JSON number is taken exactly
    doc = read(data, {"lines": [[as_text]], "points?": [[as_text]], "point_labels?": [as_text]})
    return diagram_from_lines(doc["lines"], doc.get("points", ()), doc.get("point_labels"))


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
        seq = sequence_from_json_dict(data)
        return GeneralizedWiringDiagram(seq.n, seq.moves)
    if name.endswith(".euclid.json") or ("lines" in data and "events" not in data):
        return _euclid_from_json(data)
    return diagram_from_json_dict(data)


# -- output --------------------------------------------------------------------


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _emit_json(payload: dict, args: argparse.Namespace) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)


# -- SVG -----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


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

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": _fmt(width),
            "height": _fmt(height),
            "viewBox": f"0 0 {_fmt(width)} {_fmt(height)}",
            "data-kind": "wiring-diagram",
        },
    )
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
    scale = DRAWING_SCALE
    pts = [(float(x) * scale, -float(y) * scale) for x, y in drawing.positions]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    ray = span * 0.18
    margin = ray + 20.0
    x0, y0 = min(xs) - margin, min(ys) - margin
    width = (max(xs) - min(xs)) + 2 * margin
    height = (max(ys) - min(ys)) + 2 * margin

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": _fmt(width),
            "height": _fmt(height),
            "viewBox": f"{_fmt(x0)} {_fmt(y0)} {_fmt(width)} {_fmt(height)}",
            "data-kind": "straight-drawing",
            "data-scale": _fmt(scale),
        },
    )

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


def cmd_validate(args: argparse.Namespace) -> int:
    structure = load_structure(args.inputs[0])
    levi = levi_graph(structure)
    signature = configuration_signature(structure)
    lineal = is_lineal(structure)
    payload = {
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
    if args.format == "json":
        _emit_json(payload, args)
    else:
        sig = ""
        if signature:
            v, r, b, k = signature
            sig = f"({v}_{r})" if (v, r) == (b, k) else f"({v}_{r}, {b}_{k})"
        verdict = "lineal" if lineal else "not lineal"
        text = f"{verdict}{', ' + sig if sig else ''}\n" + (
            f"points={payload['points']} lines={payload['lines']} flags={payload['flags']} "
            f"levi: {levi.vertex_count} vertices, {levi.edge_count} edges\n"
        )
        _emit(text, args.output)
    return 0


def cmd_realize(args: argparse.Namespace) -> int:
    structure = load_structure(args.inputs[0])
    plan = load_plan(structure, args.plan_path)
    r = realize(structure, plan)
    payload = {
        "sequence": sequence_to_json_dict(r.seq),
        "points": {str(i): str(p) for i, p in sorted(r.point_of_move.items())},
        "line_numbering": [str(l) for l in r.line_numbering],
        "unwanted_crossings": unwanted_crossing_count(r),
    }
    _emit_json(payload, args)
    return 0


def cmd_wiring(args: argparse.Namespace) -> int:
    diagram = load_diagram(args.inputs[0], args.plan_path)
    if args.format == "svg":
        _emit(diagram_svg(diagram), args.output)
    else:
        _emit_json({"diagram": diagram_to_json_dict(diagram)}, args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    diagram = load_diagram(args.inputs[0], args.plan_path)
    order = topological_sweep(diagram)
    payload = {
        "order": order,
        "vertices": diagram.event_count,
        "arcs": [list(a) for a in sweep_digraph(diagram)],
    }
    if args.format == "text":
        _emit(" ".join(str(v) for v in order) + "\n", args.output)
    else:
        _emit_json(payload, args)
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    diagram = load_diagram(args.inputs[0], args.plan_path)
    scheme = scheme_from_realization(diagram)
    summary = trace_and_summarize(scheme)
    payload = {
        "summary": summary_to_json_dict(summary),
        "scheme": scheme_to_json_dict(scheme),
    }
    _emit_json(payload, args)
    return 0


def cmd_straighten(args: argparse.Namespace) -> int:
    diagram = load_diagram(args.inputs[0], args.plan_path)
    drawing = straighten(diagram)
    if args.format == "svg":
        _emit(drawing_svg(drawing), args.output)
    else:
        _emit_json({"drawing": drawing_to_json_dict(drawing)}, args)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    fps = []
    for path in args.inputs:
        diagram = load_diagram(path, args.plan_path)
        fps.append(fingerprint(scheme_from_realization(diagram)))
    equal = fps[0] == fps[1]
    if args.format == "text":
        _emit(("equal" if equal else "distinct") + "\n", args.output)
    else:
        _emit_json({"equal": equal, "fingerprints": fps}, args)
    return 0


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = COMMANDS[args.subcommand][0]
    try:
        return handler(args)
    except OSError as exc:
        print(f"{args.subcommand}: cannot access {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"{args.subcommand}: parse error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"{args.subcommand}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"{args.subcommand}: invalid input: {exc}", file=sys.stderr)
        return 2
    except QuasilineError as exc:
        print(f"{args.subcommand}: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
