"""Combinatorial incidence structures and their Levi graphs.

An incidence structure is a triple (points, lines, flags) where the flags
are point-line pairs, every point lies on at least two lines, and every
line carries at least two points.  The Levi graph is the bipartite
point/line incidence graph.  A structure is *lineal* when no two points
share more than one line, which is the same as the Levi graph having
girth at least six.

Labels are opaque tokens, read only at the edges.  :func:`build` numbers
the points 0..P-1 and the lines P..V-1 in declaration order, once, and a
structure keeps its labels plus one table of sorted neighbour indices,
its Levi graph.  Every incidence question reads that table; labels are
looked up again only in answers: the incidence lookups, ``flags`` and the
map :func:`are_isomorphic` returns.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Optional

from .errors import DegreeTooLow, DuplicateId, ParseError, UnknownId, ValidationError

Label = Hashable


@dataclass(frozen=True)
class LeviGraph:
    """Bipartite incidence graph on the vertices 0..V-1: the points are
    0..points-1 and the lines points..V-1, and ``neighbours[v]`` lists the
    vertices adjacent to v in increasing order."""

    points: int
    neighbours: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.neighbours)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.neighbours[: self.points]))

    @cached_property
    def refinement(self) -> tuple[tuple[int, ...], tuple]:
        """Color refinement (McKay & Piperno 2014), run once per graph:
        the stable color of every vertex, and per round the sorted keys
        with their counts.  A vertex's first key is its side and degree,
        each later one its color and its neighbours' sorted colors, and
        a color is the rank of its key among that round's keys, so
        isomorphic graphs get equal key lists and colors that correspond.
        Refinement stops after the first round that splits no color."""
        table = self.neighbours
        keys: list = [(v >= self.points, len(near)) for v, near in enumerate(table)]
        rounds: list[tuple] = []
        while True:
            ranked = tuple(sorted(Counter(keys).items()))
            rank = {key: r for r, (key, _) in enumerate(ranked)}
            colors = [rank[key] for key in keys]
            rounds.append(ranked)
            if len(rounds) > 1 and len(ranked) == len(rounds[-2]):
                return tuple(colors), tuple(rounds)
            keys = [(colors[v], tuple(sorted([colors[u] for u in near]))) for v, near in enumerate(table)]


@dataclass(frozen=True)
class IncidenceStructure:
    """A validated incidence structure; use :func:`build` to construct one."""

    points: tuple[Label, ...]
    lines: tuple[Label, ...]
    levi: LeviGraph

    @cached_property
    def _labels(self) -> tuple[Label, ...]:
        return self.points + self.lines

    @cached_property
    def _index(self) -> dict[Label, int]:
        return {label: v for v, label in enumerate(self._labels)}

    @cached_property
    def flags(self) -> frozenset[tuple[Label, Label]]:
        """The incidences as (point, line) label pairs."""
        labels = self._labels
        return frozenset((p, labels[j]) for p, ns in zip(self.points, self.levi.neighbours) for j in ns)

    def _incident(self, label: Label, side: int) -> tuple[Label, ...]:
        """The labels incident with ``label``, in declaration order;
        ``UnknownId`` unless ``label`` is a point (``side`` 0) or a line
        (``side`` 1) of the structure."""
        v = self._index.get(label, -1)
        if v < 0 or (v >= len(self.points)) != side:
            raise UnknownId(f"unknown {('point', 'line')[side]} {label!r}")
        return tuple(map(self._labels.__getitem__, self.levi.neighbours[v]))

    def lines_of(self, point: Label) -> tuple[Label, ...]:
        """Lines through ``point``, in line declaration order."""
        return self._incident(point, 0)

    def points_of(self, line: Label) -> tuple[Label, ...]:
        """Points on ``line``, in point declaration order."""
        return self._incident(line, 1)


def build(
    points: Iterable[Label],
    lines: Iterable[Label],
    flags: Iterable[tuple[Label, Label]],
) -> IncidenceStructure:
    """Validate and construct an incidence structure.

    Flags supplied with duplicates are deduplicated silently (the
    incidence relation is a set).  Raises ``DuplicateId`` for repeated or
    clashing labels, ``UnknownId`` for the first flag, in input order,
    that references an undeclared id, and ``DegreeTooLow`` when a point
    or line lies in fewer than two flags.
    """
    point_list = tuple(points)
    line_list = tuple(lines)
    if len(set(point_list)) != len(point_list):
        raise DuplicateId("duplicate point label")
    if len(set(line_list)) != len(line_list):
        raise DuplicateId("duplicate line label")
    overlap = set(point_list) & set(line_list)
    if overlap:
        raise DuplicateId(f"labels used both as point and line: {sorted(map(repr, overlap))}")
    labels = point_list + line_list
    index = {label: v for v, label in enumerate(labels)}
    first_line = len(point_list)
    near: list[set[int]] = [set() for _ in labels]
    for p, l in flags:
        i, j = index.get(p, first_line), index.get(l, -1)
        if i >= first_line:
            raise UnknownId(f"flag references unknown point {p!r}")
        if j < first_line:
            raise UnknownId(f"flag references unknown line {l!r}")
        near[i].add(j)
        near[j].add(i)
    for label, ns in zip(labels, near):
        if len(ns) < 2:
            raise DegreeTooLow(label, len(ns))
    return IncidenceStructure(
        point_list, line_list, LeviGraph(first_line, tuple(tuple(sorted(ns)) for ns in near))
    )


def levi_graph(structure: IncidenceStructure) -> LeviGraph:
    """The Levi graph of a structure, one edge per flag: the structure's
    one incidence table."""
    return structure.levi


def is_lineal(structure: IncidenceStructure) -> bool:
    """True iff no two points are incident with two common lines: no pair
    of points appears on two lines, found in O(sum of k^2) over the lines
    of k points."""
    levi = structure.levi
    seen: set[tuple[int, int]] = set()
    for ns in levi.neighbours[levi.points :]:
        for pair in itertools.combinations(ns, 2):
            if pair in seen:
                return False
            seen.add(pair)
    return True


def configuration_signature(
    structure: IncidenceStructure,
) -> Optional[tuple[int, int, int, int]]:
    """Return (v, r, b, k) when point and line degrees are constant, else None."""
    levi = structure.levi
    pdegs = set(map(len, levi.neighbours[: levi.points]))
    ldegs = set(map(len, levi.neighbours[levi.points :]))
    if len(pdegs) != 1 or len(ldegs) != 1:
        return None
    return (len(structure.points), pdegs.pop(), len(structure.lines), ldegs.pop())


def are_isomorphic(
    c1: IncidenceStructure, c2: IncidenceStructure
) -> Optional[dict[Label, Label]]:
    """Search for an incidence-preserving bijection from ``c1`` onto ``c2``.

    Points map to points and lines to lines.  Returns the combined label
    mapping, or None when no isomorphism exists.  Each Levi graph's color
    refinement is computed once and cached, and a pair is rejected unless
    both have the same keys with the same counts in every round.  The
    search is depth-first on an explicit stack over vertex indices,
    visiting the vertices of ``c1`` by (color class size, label text);
    each tries the vertices of ``c2`` on its side with its degree.
    """
    g1, g2 = c1.levi, c2.levi
    (col1, rounds1), (_, rounds2) = g1.refinement, g2.refinement
    if rounds1 != rounds2:  # the first round alone counts the points, lines and flags
        return None

    labels1, labels2 = c1._labels, c2._labels
    sizes = [count for _, count in rounds1[-1]]  # the last round's keys rank the final colors
    verts1 = sorted(range(len(labels1)), key=lambda v: (sizes[col1[v]], str(labels1[v])))
    ns1, ns2 = g1.neighbours, g2.neighbours
    by_kind: dict[tuple[bool, int], list[int]] = {}
    for w, ns in enumerate(ns2):
        by_kind.setdefault((w >= g2.points, len(ns)), []).append(w)
    options = [by_kind.get((v >= g1.points, len(ns1[v])), []) for v in verts1]
    adj2 = [set(ns) for ns in ns2]

    # w fits v when it is unused and adjacent to the images of v's mapped
    # neighbours; with equal flag counts that makes a full mapping an
    # isomorphism.
    mapping: dict[int, int] = {}
    used: set[int] = set()
    tried = [0] * len(verts1)
    depth = 0
    while depth < len(verts1):
        v = verts1[depth]
        images = [mapping[u] for u in ns1[v] if u in mapping]
        for k in range(tried[depth], len(options[depth])):
            w = options[depth][k]
            if w not in used and all(x in adj2[w] for x in images):
                tried[depth] = k + 1
                mapping[v] = w
                used.add(w)
                depth += 1
                break
        else:
            if depth == 0:
                return None
            tried[depth] = 0
            depth -= 1
            used.discard(mapping.pop(verts1[depth]))
    return {labels1[v]: labels2[w] for v, w in mapping.items()}


def parse_lines_text(text: str) -> IncidenceStructure:
    """Parse the "lines-of-points" text format.

    One structure line per row as whitespace-separated point labels.  A
    leading ``name:`` token names the line; otherwise lines are
    auto-labelled L1..Lb.  ``#`` starts a comment.
    """
    points: list[str] = []
    seen_points: set[str] = set()
    lines: list[str] = []
    flags: list[tuple[str, str]] = []
    auto = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = raw.split("#", 1)[0]
        tokens = row.split()
        if not tokens:
            continue
        if tokens[0].endswith(":"):
            name = tokens[0][:-1]
            if not name:
                raise ParseError("empty line name before ':'", lineno, 1)
            members = tokens[1:]
            if not members:
                raise ParseError(f"line {name!r} lists no points", lineno)
        else:
            auto += 1
            name = f"L{auto}"
            members = tokens
        lines.append(name)
        for tok in members:
            if tok not in seen_points:
                seen_points.add(tok)
                points.append(tok)
            flags.append((tok, name))
    if not lines:
        raise ParseError("no structure lines found", max(1, text.count("\n") + 1))
    return build(points, lines, flags)


def format_lines_text(structure: IncidenceStructure) -> str:
    """Write the "lines-of-points" text that :func:`parse_lines_text` reads
    back as this structure, up to labels becoming their text.  Raises
    ``ValidationError`` for a label whose text is not one token of the
    format (empty, or holding whitespace or ``#``) and ``DuplicateId`` for
    two labels with one text, which would be read back as another
    structure."""
    seen: set[str] = set()
    for text in map(str, structure.points + structure.lines):
        if text.split() != [text] or "#" in text:
            raise ValidationError(f"label {text!r} is not one token of the lines text")
        if text in seen:
            raise DuplicateId(f"two labels are both written {text!r}")
        seen.add(text)
    rows = []
    for l in structure.lines:
        members = " ".join(str(p) for p in structure.points_of(l))
        rows.append(f"{l}: {members}")
    return "\n".join(rows) + "\n"
