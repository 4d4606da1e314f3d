"""Maps on closed surfaces induced by designated crossings.

The surface map of a wiring diagram is its arrangement map restricted to
the designated crossings: keeping only those crossings and joining
consecutive ones along each wire (one closing edge per wire runs through
the line at infinity) yields a graph embedded on a closed surface via a
rotation system and an edge signature: rotations are read counter-
clockwise in the disk, and an edge is negative exactly when its arc
crosses the disk boundary.  The surface is always nonorientable for
diagram-derived schemes, because each wire closes up through infinity
with an odd number of negative edges.

Straight-ahead walks (leave every vertex by the dart opposite the entry
dart) recover the wires; Euler characteristic and genus classify the
surface; a canonical fingerprint, invariant under relabelling,
regauging, and reflection, distinguishes mutation classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence

from .errors import DisconnectedScheme, ValidationError
from .jsonshape import as_int, as_text, as_text_or_null, read
from .rotmaps import Dart, RotationMap
from .wiring.diagram import GeneralizedWiringDiagram
from .wiring.faces import wire_map

Label = Hashable


@dataclass(frozen=True)
class EmbeddingScheme:
    """A rotation map with an opposite-dart pairing and per-edge line tags.

    The map is connected and its vertex degrees are even and at least
    four (every line contributes two darts at each of its points); the
    opposite pairing marks same-line continuation and always sits deg/2
    apart in the rotation.  ``lines`` optionally tags each edge with the
    line it belongs to.  The rotation system itself is checked once, when
    ``rotmap`` is built.
    """

    rotmap: RotationMap
    lines: tuple[Optional[Label], ...]

    def __post_init__(self):
        rm = self.rotmap
        if not rm.is_connected():
            raise DisconnectedScheme("embedding schemes must be connected")
        for v, rot in zip(rm.vertices, rm._rots):
            deg = len(rot)
            if deg < 4 or deg % 2 != 0:
                raise ValidationError(
                    f"vertex {v!r} has degree {deg}; even degree >= 4 required"
                )
        if len(self.lines) != len(rm.edges):
            raise ValidationError("need one line tag (or None) per edge")

    @property
    def vertex_count(self) -> int:
        return len(self.rotmap.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.rotmap.edges)


def make_scheme(
    vertices: Sequence[Label],
    edges: Sequence[tuple[Label, Label]],
    rotations: Mapping[Label, Sequence[Dart]],
    signature: Sequence[int],
    lines: Optional[Sequence[Optional[Label]]] = None,
) -> EmbeddingScheme:
    if lines is None:
        lines = [None] * len(edges)
    rm = RotationMap(
        tuple(vertices),
        tuple((u, v) for u, v in edges),
        {v: tuple(r) for v, r in rotations.items()},
        tuple(signature),
    )
    return EmbeddingScheme(rm, tuple(lines))


def scheme_from_realization(diagram: GeneralizedWiringDiagram) -> EmbeddingScheme:
    """The surface map of a diagram's designated points.

    This is the arrangement map restricted to the designated crossings
    (:func:`quasiline.wiring.faces.wire_map`): vertices are the
    designated points, edges join points consecutive along a wire
    (non-designated crossings are skipped) and are tagged with their
    wire, and the closing edge of each wire carries signature -1.
    Raises ``WireWithoutPoint`` when some wire has no designated
    crossing.
    """
    rm, arcs = wire_map(
        diagram, {i: diagram.moves[i].point for i in diagram.designated_events()}
    )
    return EmbeddingScheme(rm, tuple(w for w, _ in arcs))


# -- analysis -----------------------------------------------------------------


@dataclass(frozen=True)
class MapSummary:
    V: int
    E: int
    F: int
    euler: int
    orientable: bool
    genus: int
    face_vector: tuple[int, ...]
    fingerprint: str


def fingerprint(scheme: EmbeddingScheme) -> str:
    """Canonical text encoding; equal for schemes related by vertex
    relabelling, regauging of local orientations, and global reflection."""
    code = scheme.rotmap.canonical_encoding()
    return "m" + ",".join(map(str, code))


def trace_and_summarize(scheme: EmbeddingScheme) -> MapSummary:
    rm = scheme.rotmap
    faces = rm.faces
    V, E, F = len(rm.vertices), len(rm.edges), len(faces)
    euler = V - E + F
    orientable = rm.is_orientable()
    if orientable:
        if euler % 2 != 0:
            raise ValidationError("orientable map with odd Euler characteristic")
        genus = (2 - euler) // 2
    else:
        genus = 2 - euler
    return MapSummary(
        V=V,
        E=E,
        F=F,
        euler=euler,
        orientable=orientable,
        genus=genus,
        face_vector=rm.face_lengths(),
        fingerprint=fingerprint(scheme),
    )


@dataclass(frozen=True)
class StraightAheadWalk:
    """A closed walk leaving every vertex opposite to its entry dart."""

    line: Optional[Label]
    vertices: tuple[Label, ...]
    edge_indices: tuple[int, ...]
    negative_count: int

    def __len__(self) -> int:
        return len(self.edge_indices)

    @property
    def is_simple(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)


def straight_ahead_walks(scheme: EmbeddingScheme) -> tuple[StraightAheadWalk, ...]:
    """One walk per line; together they partition the edge set.

    On int darts 2e + end, ``ahead[x]`` leaves the far vertex of x deg/2
    places along its rotation from x's partner.  A walk's reverse is the
    same line's walk, never itself (it would leave a vertex by the dart
    it arrived on), so it is marked seen and not walked."""
    rm = scheme.rotmap
    ahead = [0] * len(rm._far)
    for rot in rm._rots:
        half = len(rot) // 2
        for i, x in enumerate(rot):
            ahead[x ^ 1] = rot[i - half]
    seen = [False] * len(ahead)
    walks = []
    for start in range(len(ahead)):
        if seen[start]:
            continue
        orbit = [start]
        x = ahead[start]
        while x != start:
            orbit.append(x)
            x = ahead[x]
        for x in orbit:
            seen[x] = seen[x ^ 1] = True
        edge_indices = tuple(x >> 1 for x in orbit)
        line_tags = {scheme.lines[e] for e in edge_indices}
        walks.append(
            StraightAheadWalk(
                line=line_tags.pop() if len(line_tags) == 1 else None,
                vertices=tuple(rm.edges[x >> 1][x & 1] for x in orbit),
                edge_indices=edge_indices,
                negative_count=sum(rm._sign[x] == -1 for x in orbit),
            )
        )
    return tuple(walks)


# -- serialization ------------------------------------------------------------


def scheme_to_json_dict(scheme: EmbeddingScheme) -> dict:
    rm = scheme.rotmap
    vindex = {v: i for i, v in enumerate(rm.vertices)}
    return {
        "vertices": [str(v) for v in rm.vertices],
        "edges": [[vindex[u], vindex[v]] for u, v in rm.edges],
        "rotations": [[[e, end] for e, end in rm.rotations[v]] for v in rm.vertices],
        "signature": list(rm.signature),
        "lines": [None if l is None else str(l) for l in scheme.lines],
    }


def _edge_end(x) -> int:
    """An edge end indexes the vertices: an integer, but not as text."""
    if isinstance(x, str):
        raise ValidationError(f"expected a vertex index, got {x!r}")
    return as_int(x)


def scheme_from_json_dict(data: dict) -> EmbeddingScheme:
    """The scheme of :func:`scheme_to_json_dict`; an invalid map raises
    what :func:`make_scheme` does."""
    doc = read(data, {
        "vertices": [as_text], "edges": [(_edge_end, _edge_end)],
        "rotations": [[(as_int, as_int)]], "signature": [as_int], "lines?": [as_text_or_null],
    })
    vertices, edges, rows = doc["vertices"], doc["edges"], doc["rotations"]
    if not all(0 <= end < len(vertices) for edge in edges for end in edge):
        raise ValidationError("an edge end is not the index of a vertex")
    if len(rows) != len(vertices):
        raise ValidationError(f"{len(rows)} rotation rows for {len(vertices)} vertex ids")
    edges = [(vertices[u], vertices[v]) for u, v in edges]
    rotations = dict(zip(vertices, rows))
    return make_scheme(vertices, edges, rotations, doc["signature"], doc.get("lines"))


def summary_to_json_dict(summary: MapSummary) -> dict:
    return {
        "V": summary.V,
        "E": summary.E,
        "F": summary.F,
        "euler": summary.euler,
        "orientable": summary.orientable,
        "genus": summary.genus,
        "face_vector": list(summary.face_vector),
        "fingerprint": summary.fingerprint,
    }

