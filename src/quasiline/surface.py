"""Maps on closed surfaces induced by designated crossings.

The surface map of a wiring diagram is its arrangement map restricted to
the designated crossings: keeping only those crossings and joining
consecutive ones along each wire (one closing edge per wire runs through
the line at infinity) yields a graph embedded on a closed surface via a
rotation system and an edge signature: rotations are read counter-
clockwise in the disk, and an edge is negative exactly when its arc
crosses the disk boundary.  The surface is always nonorientable for
diagram-derived schemes, because each wire closes up through infinity
with an odd number of negative edges.  :func:`scheme_from_realization`
is the library's one builder of signed rotation maps from wires; the
whole arrangement map, every crossing kept, is never built.

Straight-ahead walks (leave every vertex by the dart opposite the entry
dart) recover the wires; Euler characteristic and genus classify the
surface; a canonical fingerprint, invariant under relabelling,
regauging, and reflection, distinguishes mutation classes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Hashable, Optional

from .errors import DisconnectedScheme, ValidationError, WireWithoutPoint
from .jsonshape import as_int, as_text, as_text_or_null, read
from .rotmaps import RotationMap
from .wiring.diagram import GeneralizedWiringDiagram

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

    The designated events in event order are the vertices, each named by
    its move's point.  Edges are numbered wire by wire and tagged with
    their wire: the wire's j-th edge joins its j-th and (j+1)-th
    designated events (non-designated crossings are skipped), and its
    last edge closes through infinity with signature -1.  Rotations
    follow the drawing counterclockwise: at an event with window wires
    w_1..w_l (top to bottom) the order is out(w_1)..out(w_l),
    in(w_1)..in(w_l).  Raises ``WireWithoutPoint`` when some wire has no
    designated crossing.

    With k_w designated events on wire w, its edges are numbered from
    off[w] = k_1 + ... + k_(w-1); one walk over the designated events in
    order gives the j-th on w the out-dart 2(off[w] + j) and the in-dart
    2e + 1, where e is the out-edge of the previous designated event on
    w, or the closing edge off[w] + k_w - 1 at the first.
    """
    window_wires = diagram.window_wires_table
    designated = diagram.designated_events()
    count = [0] * (diagram.n + 1)
    for i in designated:
        for w in window_wires[i]:
            count[w] += 1
    nxt = [0] * (diagram.n + 1)  # per wire, its next out-edge
    prev = nxt[:]  # per wire, its last out-edge so far
    tags: list[int] = []
    signature: list[int] = []
    for w in range(1, diagram.n + 1):
        k = count[w]
        if not k:
            raise WireWithoutPoint(f"wire {w} carries no designated point")
        nxt[w] = len(tags)
        tags += [w] * k
        prev[w] = len(tags) - 1
        signature += [1] * (k - 1)
        signature.append(-1)
    heads = [0] * len(tags)
    tails = heads.copy()
    rotations = []
    for v, i in enumerate(designated):
        outs, ins = [], []
        for w in window_wires[i]:
            out, back = nxt[w], prev[w]
            nxt[w], prev[w] = out + 1, out
            heads[out] = tails[back] = v
            outs.append(2 * out)
            ins.append(2 * back + 1)
        rotations.append(tuple(outs + ins))
    vertices = tuple(diagram.moves[i].point for i in designated)
    rm = RotationMap(vertices, tuple(zip(heads, tails)), tuple(rotations), tuple(signature))
    return EmbeddingScheme(rm, tuple(tags))


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

