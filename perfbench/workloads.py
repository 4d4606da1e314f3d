"""The four benchmark workloads, driven from outside the library.

Each workload turns a seed into a fixed list of inputs (``prepare``),
runs one op on one input (``op``) with a span around every public call
into a library layer, and checks one op's output outside the timed
region (``check``).  ``check`` returns the text whose digest identifies
the op's exact output, the invariants it broke, and the counts it adds
to the per-layer metrics.
"""

from __future__ import annotations

import json
import random
from math import comb

from quasiline import (
    are_isomorphic,
    configuration_signature,
    default_plan,
    fingerprint,
    is_lineal,
    levi_graph,
    parse_lines_text,
    realize,
    scheme_from_realization,
    scheme_to_json_dict,
    sequence_to_json_dict,
    summary_to_json_dict,
    trace_and_summarize,
    unwanted_crossing_count,
)
from quasiline.wiring import (
    apply_triangle_move,
    diagram_from_lines,
    diagram_from_realization,
    diagram_to_json_dict,
    drawing_to_json_dict,
    insert_digon,
    removable_digons,
    remove_digon,
    straighten,
    topological_sweep,
    trace_faces_disk,
    triangle_moves,
)

from . import inputs


def _dumps(payload: dict) -> str:
    """JSON text exactly as the command line emits it."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _replay(n: int, moves) -> tuple[list[tuple[int, ...]], dict[frozenset, int]]:
    """Window contents before each move, and how often each pair crosses."""
    perm = list(range(1, n + 1))
    windows = []
    crossings: dict[frozenset, int] = {}
    for move in moves:
        a, b = move.start - 1, move.start - 1 + move.length
        window = tuple(perm[a:b])
        windows.append(window)
        for i, x in enumerate(window):
            for y in window[i + 1:]:
                key = frozenset((x, y))
                crossings[key] = crossings.get(key, 0) + 1
        perm[a:b] = window[::-1]
    return windows, crossings


def _generalized(n: int, crossings: dict[frozenset, int]) -> bool:
    return all(
        crossings.get(frozenset((x, y)), 0) % 2 == 1
        for x in range(1, n + 1) for y in range(x + 1, n + 1)
    )


def _euler_ok(diagram, faces) -> bool:
    """V - E + F = 1 on the projective plane; every wire has one arc per event."""
    edges = sum(len(diagram.wire_events(w)) for w in range(1, diagram.n + 1))
    return diagram.event_count - edges + len(faces) == 1


class Workload:
    name = ""

    def begin_pass(self, prepared):
        """Fresh per-pass state, so that every pass repeats the same ops."""
        return None

    def items(self, prepared):
        return prepared

    def pass_counts(self, state) -> dict[str, int]:
        """Counts known only once a pass has ended."""
        return {}


class RealizeMap(Workload):
    """Structure text to realization, diagram, sweep, faces, surface map
    and CLI payload.  One op is one structure."""

    name = "realize-map"

    def prepare(self, seed: int):
        return inputs.realize_map_inputs(seed)

    def op(self, item, state, spans):
        _, text = item
        with spans.span("incidence.parse"):
            structure = parse_lines_text(text)
        with spans.span("realization.plan"):
            plan = default_plan(structure)
        with spans.span("realization.realize"):
            realization = realize(structure, plan)
            unwanted = unwanted_crossing_count(realization)
        with spans.span("wiring.diagram.build"):
            diagram = diagram_from_realization(realization)
        with spans.span("wiring.diagram.sweep"):
            order = topological_sweep(diagram)
        with spans.span("wiring.faces.trace"):
            faces = trace_faces_disk(diagram)
        with spans.span("surface.scheme"):
            scheme = scheme_from_realization(diagram)
        with spans.span("surface.summary"):
            summary = trace_and_summarize(scheme)
        with spans.span("cli.payload"):
            payload = _dumps({
                "realize": {
                    "sequence": sequence_to_json_dict(realization.seq),
                    "points": {str(i): str(p) for i, p in sorted(realization.point_of_move.items())},
                    "line_numbering": [str(l) for l in realization.line_numbering],
                    "unwanted_crossings": unwanted,
                },
                "diagram": diagram_to_json_dict(diagram),
                "sweep": {"order": order},
                "faces": [len(f) for f in faces],
                "map": {"summary": summary_to_json_dict(summary), "scheme": scheme_to_json_dict(scheme)},
            })
        return structure, plan, realization, diagram, faces, summary, unwanted, payload

    def check(self, item, out, state):
        structure, plan, realization, diagram, faces, summary, unwanted, payload = out
        problems = []
        seq = realization.seq
        windows, crossings = _replay(seq.n, seq.moves)
        if not _generalized(seq.n, crossings):
            problems.append("realization is not generalized")
        number = {l: i + 1 for i, l in enumerate(plan.line_numbering)}
        if sorted(realization.point_of_move.values(), key=str) != sorted(structure.points, key=str):
            problems.append("designated moves do not match the points one to one")
        for index, point in realization.point_of_move.items():
            if windows[index - 1] != tuple(number[l] for l in plan.point_line_orders[point]):
                problems.append(f"window of point {point} does not hold the plan's content")
        if not _euler_ok(diagram, faces):
            problems.append("V - E + F != 1 on the arrangement")
        if summary.orientable:
            problems.append("surface map is orientable")
        counts = {
            "realization.unwanted_crossings": unwanted,
            "wiring.diagram.events": diagram.event_count,
            "wiring.faces.faces": len(faces),
            "wiring.faces.digons": sum(1 for f in faces if len(f) == 2),
            "surface.fingerprint_len": len(summary.fingerprint),
        }
        return payload, problems, counts


class StraightenEuclid(Workload):
    """Exact Euclidean sweep and bend-free straightening.  One op is one
    arrangement."""

    name = "straighten-euclid"

    def prepare(self, seed: int):
        return inputs.straighten_inputs(seed)

    def op(self, item, state, spans):
        _, arrangement = item
        with spans.span("wiring.euclid.sweep"):
            diagram = diagram_from_lines(
                arrangement["lines"], arrangement.get("points", ()), arrangement.get("labels")
            )
        with spans.span("wiring.straighten.straighten"):
            drawing = straighten(diagram)
        with spans.span("cli.payload"):
            payload = _dumps({"drawing": drawing_to_json_dict(drawing)})
        return diagram, drawing, payload

    def check(self, item, out, state):
        diagram, drawing, payload = out
        problems = []
        if len(drawing.positions) != diagram.event_count or len(set(drawing.positions)) != diagram.event_count:
            problems.append("drawing does not give one distinct point per event")
        bits = max(
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for point in drawing.positions for c in point
        )
        counts = {
            "wiring.diagram.events": diagram.event_count,
            "wiring.straighten.outer_len": len(drawing.outer_cycle),
            "wiring.straighten.coord_bits_max": bits,
        }
        return payload, problems, counts


class Walk:
    """One equivalence walk in progress."""

    def __init__(self, diagram, start_fingerprint: str, seed: int) -> None:
        self.diagram = diagram
        self.start_events = diagram.event_count
        self.start_fingerprint = start_fingerprint
        self.rng = random.Random(seed)


class Equivalence(Workload):
    """Seeded walks of admissible digon and triangle moves from the
    realizations of cyclic configurations.  One op is one step."""

    name = "equivalence"

    def prepare(self, seed: int):
        walks = []
        for name, text, walk_seed in inputs.equivalence_inputs(seed):
            structure = parse_lines_text(text)
            diagram = diagram_from_realization(realize(structure, default_plan(structure)))
            walks.append((name, diagram, fingerprint(scheme_from_realization(diagram)), walk_seed))
        steps = [(w, s) for w in range(len(walks)) for s in range(inputs.STEPS_PER_WALK)]
        return walks, steps

    def begin_pass(self, prepared):
        walks, steps = prepared
        return [Walk(d, fp, s) for _, d, fp, s in walks]

    def items(self, prepared):
        return prepared[1]

    def op(self, item, state, spans):
        walk = state[item[0]]
        diagram = walk.diagram
        with spans.span("wiring.mutations.sites"):
            digons = sorted(removable_digons(diagram))
            triangles = sorted(triangle_moves(diagram))
        # Hold the event count near its start so every seed walks diagrams
        # of the same size: insert a digon when at or below it, remove one
        # when above it, and take a triangle move when the draw says so.
        kinds = ["insert" if diagram.event_count <= walk.start_events or not digons else "remove"]
        if triangles:
            kinds.append("triangle")
        kind = walk.rng.choice(kinds)
        with spans.span("wiring.mutations.apply"):
            if kind == "triangle":
                site = walk.rng.choice(triangles)
                moved = apply_triangle_move(diagram, site)
            elif kind == "remove":
                site = walk.rng.choice(digons)
                moved = remove_digon(diagram, site[0])
            else:
                at = walk.rng.randrange(diagram.event_count + 1)
                track = walk.rng.randrange(1, diagram.n)
                perm = diagram.permutation_before(at)
                site = (perm[track - 1], perm[track])
                moved = insert_digon(diagram, site, at)
        with spans.span("surface.scheme"):
            scheme = scheme_from_realization(moved)
        with spans.span("surface.fingerprint"):
            same = fingerprint(scheme) == walk.start_fingerprint
        walk.diagram = moved
        return diagram, kind, site, moved, same, len(digons), len(triangles)

    def check(self, item, out, state):
        before, kind, site, moved, same, digon_sites, triangle_sites = out
        problems = [] if same else ["fingerprint changed along the walk"]
        text = json.dumps({"move": kind, "site": list(site), "diagram": diagram_to_json_dict(moved)}, sort_keys=True)
        counts = {
            "wiring.mutations.steps": 1,
            "wiring.mutations.digon_sites": digon_sites,
            "wiring.mutations.triangle_sites": triangle_sites,
            "wiring.mutations.triangles_scanned": comb(before.event_count, 3),
            "surface.fingerprint_len": len(state[item[0]].start_fingerprint),
        }
        return text, problems, counts


class Catalogue(Workload):
    """Relabelled structures validated and deduplicated up to isomorphism.
    One op is one structure."""

    name = "catalogue"

    def prepare(self, seed: int):
        return inputs.catalogue_inputs(seed)

    def begin_pass(self, prepared):
        return {}  # (points, lines, flags) -> kept representatives

    def pass_counts(self, state) -> dict[str, int]:
        return {"incidence.classes": sum(len(kept) for kept in state.values())}

    def op(self, item, state, spans):
        _, text = item
        with spans.span("incidence.parse"):
            structure = parse_lines_text(text)
        with spans.span("incidence.validate"):
            levi = levi_graph(structure)
            lineal = is_lineal(structure)
            signature = configuration_signature(structure)
        size = (len(structure.points), len(structure.lines), len(structure.flags))
        kept = state.setdefault(size, [])
        checks, found, mapping = 0, None, None
        with spans.span("incidence.isomorphism"):
            for index, rep in enumerate(kept):
                checks += 1
                mapping = are_isomorphic(structure, rep)
                if mapping is not None:
                    found = index
                    break
        if found is None:
            kept.append(structure)
            found = len(kept) - 1
        with spans.span("cli.payload"):
            payload = _dumps({
                "points": size[0],
                "lines": size[1],
                "flags": size[2],
                "lineal": lineal,
                "signature": list(signature) if signature else None,
                "levi": {"vertices": levi.vertex_count, "edges": levi.edge_count},
                "class": [list(size), found],
            })
        return structure, kept[found], mapping, checks, payload

    def check(self, item, out, state):
        structure, rep, mapping, checks, payload = out
        problems = []
        if mapping is not None:
            points = {mapping[p] for p in structure.points}
            lines = {mapping[l] for l in structure.lines}
            flags = {(mapping[p], mapping[l]) for p, l in structure.flags}
            if points != set(rep.points) or lines != set(rep.lines) or flags != set(rep.flags):
                problems.append("isomorphism does not map flags onto flags")
        counts = {
            "incidence.isomorphism_checks": checks,
            "incidence.isomorphism_matches": int(mapping is not None),
        }
        return payload, problems, counts


WORKLOADS = {w.name: w for w in (RealizeMap(), StraightenEuclid(), Equivalence(), Catalogue())}
