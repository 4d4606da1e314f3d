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

from dataclasses import dataclass, fields
from typing import Hashable, Optional

from .errors import DisconnectedScheme, ValidationError
from .jsonshape import as_int, as_text, as_text_or_null, read
from .rotmaps import RotationMap
from .wiring.diagram import GeneralizedWiringDiagram
from .wiring.faces import wire_map

Label = Hashable


@dataclass(frozen=True)
class EmbeddingScheme:
    """A rotation map with per-edge line tags.

    The map is connected and its vertex degrees are even and at least
    four (every line contributes two darts at each of its points); a
    line continues straight ahead through a vertex by the dart deg/2
    places along the rotation.  ``lines`` tags each edge with the line
    it belongs to, or None.  The rotation system itself is checked once,
    when ``rotmap`` is built.
    """

    rotmap: RotationMap
    lines: tuple[Optional[Label], ...]

    def __post_init__(self):
        rm = self.rotmap
        if not rm.is_connected():
            raise DisconnectedScheme("embedding schemes must be connected")
        for v, rot in zip(rm.vertices, rm.rotations):
            deg = len(rot)
            if deg < 4 or deg % 2 != 0:
                raise ValidationError(
                    f"vertex {v!r} has degree {deg}; even degree >= 4 required"
                )
        if len(self.lines) != len(rm.edges):
            raise ValidationError("need one line tag (or None) per edge")


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
    return EmbeddingScheme(*wire_map(
        diagram, {i: diagram.moves[i].point for i in diagram.designated_events()}
    ))


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
    """A closed walk leaving every vertex opposite to its entry dart: the
    index of the vertex each step leaves, and the edge it takes."""

    line: Optional[Label]
    vertices: tuple[int, ...]
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
    ahead = [0] * (2 * len(rm.edges))
    for rot in rm.rotations:
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
                negative_count=sum(rm.signature[e] == -1 for e in edge_indices),
            )
        )
    return tuple(walks)


# -- serialization ------------------------------------------------------------


def scheme_to_json_dict(scheme: EmbeddingScheme) -> dict:
    rm = scheme.rotmap
    return {
        "vertices": [str(v) for v in rm.vertices],
        "edges": [[u, v] for u, v in rm.edges],
        "rotations": [[[x >> 1, x & 1] for x in rot] for rot in rm.rotations],
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
    what :class:`RotationMap` and :class:`EmbeddingScheme` do.  A dart
    [e, end] is read as 2e + end once e is an edge and end is 0 or 1."""
    doc = read(data, {
        "vertices": [as_text], "edges": [(_edge_end, _edge_end)],
        "signature": [as_int], "lines?": [as_text_or_null],
    })
    edges = doc["edges"]

    def dart(x) -> int:
        e, end = read(x, (as_int, as_int))
        if not (0 <= e < len(edges) and end in (0, 1)):
            raise ValidationError(f"malformed dart [{e}, {end}]")
        return 2 * e + end

    rotations = read(data, {"rotations": [[dart]]})["rotations"]
    rm = RotationMap(doc["vertices"], edges, rotations, doc["signature"])
    return EmbeddingScheme(rm, doc.get("lines", (None,) * len(edges)))


def summary_to_json_dict(summary: MapSummary) -> dict:
    """One key per field of :class:`MapSummary`, in field order."""
    row = {f.name: getattr(summary, f.name) for f in fields(MapSummary)}
    row["face_vector"] = list(summary.face_vector)
    return row

