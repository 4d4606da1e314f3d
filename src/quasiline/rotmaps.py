"""Rotation systems with edge signatures, and face tracing on them.

A map on a closed surface is described combinatorially by a graph
(multi-edges and loops allowed) together with a cyclic order of darts
around every vertex and a +1/-1 signature per edge.  Faces are traced by
walking signed darts: crossing a negative edge flips the local sense of
rotation.  Euler characteristic, orientability and a canonical encoding
(invariant under vertex relabelling, regauging of local orientations,
and global reflection) all derive from this structure.

Darts are pairs (edge index, end); end 0 attaches at the first endpoint
of the edge, end 1 at the second.  Rotations list darts counterclockwise
in whatever drawing the map came from.

A face-traversal state is a dart with a local sense s of +1 or -1.
Faces are traced on ints: state ((e, end), s) is 4e + 2·end + (s == 1),
so ``x >> 2`` is its edge, ``x >> 1 & 1`` its end and ``x & 1`` its
sense, and the ints sort as the (dart, sense) tuples do.  Each map
builds, once, the table of the next state of every state, and the face
walks follow it.

The canonical encoding is the least of the encodings from every start
dart in both senses.  It numbers darts as ints 2e+end, starts only at
vertices of least degree, and abandons a candidate as soon as a final
prefix of it exceeds the best so far, so most candidates stop after a
few entries; the result is the same as encoding every candidate in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterator, Mapping

from .errors import ValidationError

Dart = tuple[int, int]


@dataclass(frozen=True)
class RotationMap:
    vertices: tuple[Hashable, ...]
    edges: tuple[tuple[Hashable, Hashable], ...]
    rotations: Mapping[Hashable, tuple[Dart, ...]]
    signature: tuple[int, ...]

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValidationError("duplicate vertex ids in rotation map")
        if len(self.signature) != len(self.edges):
            raise ValidationError("signature length must match edge count")
        if any(s not in (1, -1) for s in self.signature):
            raise ValidationError("signatures must be +1 or -1")
        for u, v in self.edges:
            if u not in vset or v not in vset:
                raise ValidationError(f"edge endpoint {u!r}/{v!r} not a vertex")
        seen: set[Dart] = set()
        for v in self.vertices:
            for d in self.rotations.get(v, ()):
                e, end = d
                if not (0 <= e < len(self.edges) and end in (0, 1)):
                    raise ValidationError(f"malformed dart {d!r} at {v!r}")
                if self.edges[e][end] != v:
                    raise ValidationError(f"dart {d!r} listed at wrong vertex {v!r}")
                if d in seen:
                    raise ValidationError(f"dart {d!r} listed twice")
                seen.add(d)
        if len(seen) != 2 * len(self.edges):
            raise ValidationError("rotations must cover every dart exactly once")

    # -- basic accessors ---------------------------------------------------

    @staticmethod
    def rev(dart: Dart) -> Dart:
        return (dart[0], 1 - dart[1])

    def attach(self, dart: Dart) -> Hashable:
        return self.edges[dart[0]][dart[1]]

    def degree(self, vertex: Hashable) -> int:
        return len(self.rotations[vertex])

    def darts(self) -> Iterator[Dart]:
        for e in range(len(self.edges)):
            yield (e, 0)
            yield (e, 1)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for d in self.rotations[v]:
                u = self.attach(self.rev(d))
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.vertices)

    # -- faces -------------------------------------------------------------

    @cached_property
    def _successor(self) -> list[int]:
        """The next face-traversal state of every state.

        From state ((e, end), s) the walk crosses edge e, which turns the
        sense into s' = s·signature[e], and leaves the far vertex by the
        dart after (e, 1 - end) in its rotation, counterclockwise when
        s' = 1 and clockwise otherwise, keeping sense s'.
        """
        succ = [0] * (4 * len(self.edges))
        for v in self.vertices:
            rot = self.rotations.get(v, ())
            for i, (e, end) in enumerate(rot):
                e1, end1 = rot[(i + 1) % len(rot)]
                e0, end0 = rot[i - 1]
                ccw, cw = 4 * e1 + 2 * end1 + 1, 4 * e0 + 2 * end0
                arrive = 4 * e + 2 * (1 - end)  # the states crossing e to here
                if self.signature[e] == 1:
                    succ[arrive], succ[arrive + 1] = cw, ccw
                else:
                    succ[arrive], succ[arrive + 1] = ccw, cw
        return succ

    @cached_property
    def face_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the signed face-traversal step on int states; two
        orbits per face."""
        succ = self._successor
        seen = [False] * len(succ)
        orbits: list[tuple[int, ...]] = []
        for start in range(len(succ)):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            state = succ[start]
            while state != start:
                orbit.append(state)
                seen[state] = True
                state = succ[state]
            orbits.append(tuple(orbit))
        return tuple(orbits)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """One traversal per face (each face is traced twice, in opposite
        directions; the lexicographically smaller traversal is kept)."""
        orbits = self.face_orbits
        index_of = [0] * (4 * len(self.edges))
        for i, orbit in enumerate(orbits):
            for state in orbit:
                index_of[state] = i
        kept: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for i, orbit in enumerate(orbits):
            if i in seen:
                continue
            # the reverse of ((e, end), s) is ((e, 1 - end), -s·signature[e])
            x = orbit[0]
            j = index_of[x ^ 2 ^ (self.signature[x >> 2] == 1)]
            if j == i or j in seen:
                raise ValidationError("face traversal pairing failed; invalid map")
            seen.update((i, j))
            kept.append(min(orbits[i], orbits[j]))
        return tuple(kept)

    def face_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(len(f) for f in self.faces))

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def is_orientable(self) -> bool:
        """Sign-normalize along a spanning tree, then look for a
        signature-reversing cycle."""
        if not self.vertices:
            return True
        sign: dict[Hashable, int] = {self.vertices[0]: 1}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for d in self.rotations[v]:
                e, _ = d
                u = self.attach(self.rev(d))
                if u not in sign:
                    sign[u] = sign[v] * self.signature[e]
                    stack.append(u)
        for e, (u, v) in enumerate(self.edges):
            if sign[u] * self.signature[e] * sign[v] != 1:
                return False
        return True

    # -- canonical encoding -------------------------------------------------

    def canonical_encoding(self) -> tuple[int, ...]:
        """Lexicographic minimum over all starting darts and both global
        reflections; a complete invariant of the map up to relabelling,
        regauging and mirror image.

        The encoding from a start dart lists the degrees of the vertices
        in discovery order, then, per numbered dart, twice its partner's
        number plus one if the edge is negative in the gauge.  Its first
        entry is the start's degree, so only darts at vertices of least
        degree can win.  Each candidate is compared with the best so far
        while it is built, and abandoned once it is known to be greater.
        """
        rots = [
            [2 * e + end for e, end in self.rotations.get(v, ())]
            for v in self.vertices
        ]
        vertex_of = [0] * (2 * len(self.edges))
        position = [0] * (2 * len(self.edges))
        for v, rot in enumerate(rots):
            for k, d in enumerate(rot):
                vertex_of[d] = v
                position[d] = k
        count: dict[int, int] = {}
        for rot in rots:
            if rot:
                count[len(rot)] = count.get(len(rot), 0) + 1
        tables = (rots, vertex_of, position, count)
        low = min(count, default=0)
        best = None
        for rot in rots:
            if len(rot) == low:
                for d in rot:
                    for reflect in (1, -1):
                        best = self._encode(tables, d, reflect, best) or best
        if best is None:
            raise ValidationError("canonical encoding requires an edge")
        return tuple(best[0] + best[1])

    def _encode(self, tables, start: int, reflect: int, best):
        """The (degrees, codes) encoding from dart ``start`` in sense
        ``reflect`` if it is less than ``best``, else None.

        Degree q is final once its vertex is discovered, and the code of
        dart p once the cursor has processed p.  The candidate is
        abandoned as soon as its degree prefix is greater than the
        best's, or its code prefix is greater while the degree parts are
        known to tie: equal prefixes, and one degree shared by every
        undiscovered vertex.
        """
        rots, vertex_of, position, undiscovered = tables
        undiscovered = undiscovered.copy()
        kinds = len(undiscovered)
        signature = self.signature
        gauge = [0] * len(rots)
        number = [0] * len(vertex_of)
        order: list[int] = []
        degrees: list[int] = []
        codes: list[int] = []
        best_degrees, best_codes = best or ((), ())
        smaller = best is None
        checked = 0
        cursor = 0
        v, entry, g = vertex_of[start], start, reflect
        while True:
            gauge[v] = g
            rot = rots[v]
            deg = len(rot)
            i = position[entry]
            for k in range(deg):
                d = rot[(i + g * k) % deg]
                number[d] = len(order)
                order.append(d)
            undiscovered[deg] -= 1
            if not undiscovered[deg]:
                kinds -= 1
            if not smaller and deg != best_degrees[len(degrees)]:
                if deg > best_degrees[len(degrees)]:
                    return None
                smaller = True
            degrees.append(deg)
            while cursor < len(order):
                d = order[cursor]
                r = d ^ 1
                u = vertex_of[r]
                s = gauge[vertex_of[d]] * signature[d >> 1]
                if not gauge[u]:
                    break
                codes.append(2 * number[r] + (s != gauge[u]))
                cursor += 1
                if not smaller and kinds <= 1:
                    while checked < cursor:
                        if codes[checked] != best_codes[checked]:
                            if codes[checked] > best_codes[checked]:
                                return None
                            smaller = True
                            break
                        checked += 1
            else:
                break
            v, entry, g = u, r, s
        if len(order) != len(vertex_of):
            raise ValidationError("canonical encoding requires a connected map")
        return (degrees, codes) if smaller else None
