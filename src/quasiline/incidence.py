"""Combinatorial incidence structures and their Levi graphs.

An incidence structure is a triple (points, lines, flags) where the flags
are point-line pairs, every point lies on at least two lines, and every
line carries at least two points.  The Levi graph is the bipartite
point/line incidence graph.  A structure is *lineal* when no two points
share more than one line, which is the same as the Levi graph having
girth at least six.

Labels are opaque tokens; internally everything is mapped to dense
integer indices through stable lookup tables so that derived data is
deterministic.
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
class IncidenceStructure:
    """A validated incidence structure; use :func:`build` to construct one."""

    points: tuple[Label, ...]
    lines: tuple[Label, ...]
    flags: frozenset[tuple[Label, Label]]

    @cached_property
    def _levi(self) -> LeviGraph:
        return LeviGraph(self.points, self.lines, self.flags)

    def lines_of(self, point: Label) -> tuple[Label, ...]:
        """Lines through ``point``, in line declaration order."""
        return self._levi.adjacency[point]

    def points_of(self, line: Label) -> tuple[Label, ...]:
        """Points on ``line``, in point declaration order."""
        return self._levi.adjacency[line]


def build(
    points: Iterable[Label],
    lines: Iterable[Label],
    flags: Iterable[tuple[Label, Label]],
) -> IncidenceStructure:
    """Validate and construct an incidence structure.

    Flags supplied with duplicates are deduplicated silently (the
    incidence relation is a set).  Raises ``DuplicateId`` for repeated or
    clashing labels, ``UnknownId`` for flags that reference undeclared
    ids, and ``DegreeTooLow`` when a point or line lies in fewer than two
    flags.
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
    point_set, line_set = set(point_list), set(line_list)
    flag_set = frozenset(flags)
    for p, l in flag_set:
        if p not in point_set:
            raise UnknownId(f"flag references unknown point {p!r}")
        if l not in line_set:
            raise UnknownId(f"flag references unknown line {l!r}")
    pdeg = {p: 0 for p in point_list}
    ldeg = {l: 0 for l in line_list}
    for p, l in flag_set:
        pdeg[p] += 1
        ldeg[l] += 1
    for p in point_list:
        if pdeg[p] < 2:
            raise DegreeTooLow(p, pdeg[p])
    for l in line_list:
        if ldeg[l] < 2:
            raise DegreeTooLow(l, ldeg[l])
    return IncidenceStructure(point_list, line_list, flag_set)


@dataclass(frozen=True)
class LeviGraph:
    """Bipartite incidence graph: black vertices are points, white are lines."""

    black: tuple[Label, ...]
    white: tuple[Label, ...]
    edges: frozenset[tuple[Label, Label]]

    @cached_property
    def adjacency(self) -> dict[Label, tuple[Label, ...]]:
        """Neighbours of every vertex, lines in ``white`` order and points
        in ``black`` order, bucketed from the edges in O(edges)."""
        lines_at: dict[Label, list[Label]] = {p: [] for p in self.black}
        for p, l in self.edges:
            lines_at[p].append(l)
        table: dict[Label, list[Label]] = {v: [] for v in self.black + self.white}
        for p in self.black:
            for l in lines_at[p]:
                table[l].append(p)
        for l in self.white:
            for p in table[l]:
                table[p].append(l)
        return {v: tuple(ns) for v, ns in table.items()}

    @property
    def vertex_count(self) -> int:
        return len(self.black) + len(self.white)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def levi_graph(structure: IncidenceStructure) -> LeviGraph:
    """The Levi graph of a structure, one edge per flag; built once per
    structure, and its adjacency is also the structure's incidence table."""
    return structure._levi


def is_lineal(structure: IncidenceStructure) -> bool:
    """True iff no two points are incident with two common lines."""
    for p, q in itertools.combinations(structure.points, 2):
        common = set(structure.lines_of(p)) & set(structure.lines_of(q))
        if len(common) >= 2:
            return False
    return True


def configuration_signature(
    structure: IncidenceStructure,
) -> Optional[tuple[int, int, int, int]]:
    """Return (v, r, b, k) when point and line degrees are constant, else None."""
    pdegs = {len(structure.lines_of(p)) for p in structure.points}
    ldegs = {len(structure.points_of(l)) for l in structure.lines}
    if len(pdegs) != 1 or len(ldegs) != 1:
        return None
    return (len(structure.points), pdegs.pop(), len(structure.lines), ldegs.pop())


def _refine_colors(*graphs: LeviGraph) -> list[dict[Label, int]]:
    # Iterated neighborhood refinement of all graphs with one shared key
    # table, so a color means the same in every graph; the initial color
    # separates the two sides of the bipartition and the degrees.
    seed: dict[tuple, int] = {}
    colors = []
    for g in graphs:
        black, adj = set(g.black), g.adjacency  # adj lists black, then white
        colors.append({v: seed.setdefault((v in black, len(adj[v])), len(seed)) for v in adj})
    count = len(seed)
    while True:
        fresh: dict[tuple, int] = {}
        colors = [
            {
                v: fresh.setdefault(
                    (color[v], tuple(sorted(color[u] for u in g.adjacency[v]))), len(fresh)
                )
                for v in color
            }
            for g, color in zip(graphs, colors)
        ]
        if len(fresh) == count:
            return colors
        count = len(fresh)


def are_isomorphic(
    c1: IncidenceStructure, c2: IncidenceStructure
) -> Optional[dict[Label, Label]]:
    """Search for an incidence-preserving bijection from ``c1`` onto ``c2``.

    Points map to points and lines to lines.  Returns the combined label
    mapping, or None when no isomorphism exists.  Both Levi graphs are
    refined with one color table, and a pair is rejected unless every
    color has the same count in both.  The search is depth-first on an
    explicit stack; each vertex tries the vertices of the other graph on
    its side with its degree.
    """
    if len(c1.points) != len(c2.points) or len(c1.lines) != len(c2.lines):
        return None
    if len(c1.flags) != len(c2.flags):
        return None
    g1, g2 = levi_graph(c1), levi_graph(c2)
    col1, col2 = _refine_colors(g1, g2)
    sizes = Counter(col1.values())
    if sizes != Counter(col2.values()):
        return None

    verts1 = sorted(col1, key=lambda v: (sizes[col1[v]], str(v)))
    black1, black2 = set(g1.black), set(g2.black)
    by_kind: dict[tuple[bool, int], list[Label]] = {}
    for w in col2:
        by_kind.setdefault((w in black2, len(g2.adjacency[w])), []).append(w)
    options = [by_kind.get((v in black1, len(g1.adjacency[v])), []) for v in verts1]
    adj2 = {w: set(g2.adjacency[w]) for w in col2}

    # w fits v when it is unused and adjacent to the images of v's mapped
    # neighbours; with equal flag counts that makes a full mapping an
    # isomorphism.  Asking w to touch no other used vertex prunes early.
    mapping: dict[Label, Label] = {}
    used: set[Label] = set()
    tried = [0] * len(verts1)
    depth = 0
    while depth < len(verts1):
        v = verts1[depth]
        images = [mapping[u] for u in g1.adjacency[v] if u in mapping]
        for k in range(tried[depth], len(options[depth])):
            w = options[depth][k]
            if (
                w not in used
                and all(x in adj2[w] for x in images)
                and sum(x in used for x in adj2[w]) == len(images)
            ):
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
    return mapping


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
