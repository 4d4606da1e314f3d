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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterator, Mapping

from .errors import ValidationError

Dart = tuple[int, int]
State = tuple[Dart, int]


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

    @cached_property
    def _position(self) -> dict[Dart, int]:
        pos: dict[Dart, int] = {}
        for v in self.vertices:
            for i, d in enumerate(self.rotations[v]):
                pos[d] = i
        return pos

    def rotation_next(self, dart: Dart, direction: int = 1) -> Dart:
        rot = self.rotations[self.attach(dart)]
        i = self._position[dart]
        return rot[(i + direction) % len(rot)]

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

    def _step(self, state: State) -> State:
        (e, end), s = state
        s2 = s * self.signature[e]
        r = (e, 1 - end)
        d2 = self.rotation_next(r, 1 if s2 == 1 else -1)
        return (d2, s2)

    def _reverse_state(self, state: State) -> State:
        (e, end), s = state
        return ((e, 1 - end), -s * self.signature[e])

    @cached_property
    def face_orbits(self) -> tuple[tuple[State, ...], ...]:
        """Orbits of the signed face-traversal step; two orbits per face."""
        seen: set[State] = set()
        orbits: list[tuple[State, ...]] = []
        for start in ((d, s) for d in self.darts() for s in (-1, 1)):
            if start in seen:
                continue
            orbit = [start]
            state = self._step(start)
            while state != start:
                orbit.append(state)
                state = self._step(state)
            seen.update(orbit)
            orbits.append(tuple(orbit))
        return tuple(orbits)

    @cached_property
    def faces(self) -> tuple[tuple[State, ...], ...]:
        """One traversal per face (each face is traced twice, in opposite
        directions; the lexicographically smaller traversal is kept)."""
        orbits = self.face_orbits
        index_of: dict[State, int] = {}
        for i, orbit in enumerate(orbits):
            for state in orbit:
                index_of[state] = i
        kept: list[tuple[State, ...]] = []
        seen: set[int] = set()
        for i, orbit in enumerate(orbits):
            if i in seen:
                continue
            j = index_of[self._reverse_state(orbit[0])]
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

    def _encode_from(self, start: Dart, reflect: int) -> tuple[int, ...]:
        gauge: dict[Hashable, int] = {}
        dart_number: dict[Dart, int] = {}
        order: list[Dart] = []
        degrees: list[int] = []

        def discover(vertex: Hashable, entry: Dart, g: int) -> None:
            gauge[vertex] = g
            rot = self.rotations[vertex]
            i = self._position[entry]
            deg = len(rot)
            degrees.append(deg)
            for k in range(deg):
                d = rot[(i + g * k) % deg]
                dart_number[d] = len(order)
                order.append(d)

        discover(self.attach(start), start, reflect)
        cursor = 0
        while cursor < len(order):
            d = order[cursor]
            cursor += 1
            r = self.rev(d)
            u = self.attach(r)
            if u not in gauge:
                discover(u, r, gauge[self.attach(d)] * self.signature[d[0]])
        if len(order) != 2 * len(self.edges):
            raise ValidationError("canonical encoding requires a connected map")
        out: list[int] = list(degrees)
        for d in order:
            e = d[0]
            partner = dart_number[self.rev(d)]
            eff = gauge[self.attach(d)] * self.signature[e] * gauge[self.attach(self.rev(d))]
            out.append(partner * 2 + (0 if eff == 1 else 1))
        return tuple(out)

    def canonical_encoding(self) -> tuple[int, ...]:
        """Lexicographic minimum over all starting darts and both global
        reflections; a complete invariant of the map up to relabelling,
        regauging and mirror image."""
        best: tuple[int, ...] | None = None
        for d in self.darts():
            for reflect in (1, -1):
                enc = self._encode_from(d, reflect)
                if best is None or enc < best:
                    best = enc
        assert best is not None
        return best
