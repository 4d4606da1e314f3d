"""Rotation systems with edge signatures, and face tracing on them.

A map on a closed surface is described combinatorially by a graph
(multi-edges and loops allowed) together with a cyclic order of darts
around every vertex and a +1/-1 signature per edge.  Faces are traced by
walking signed darts: crossing a negative edge flips the local sense of
rotation.  The faces (and so the Euler characteristic V - E + F),
orientability and a canonical encoding (invariant under vertex
relabelling, regauging of local orientations, and global reflection)
all derive from this structure.

A map's vertices are indexed 0 .. V-1 in the order of its vertex ids,
and its edges join pairs of vertex indices.  A dart is the int 2e + end
of its edge e and end: end 0 attaches at the first endpoint of the edge,
end 1 at the second, so ``x >> 1`` is a dart's edge, ``x & 1`` its end
and ``x ^ 1`` its partner.  The rotation of vertex i lists its darts
counterclockwise in whatever drawing the map came from.

Validation derives, once, per dart the index of the vertex it leads to
(its partner's vertex) and its edge's sign.  Connectivity, orientability,
face tracing and the canonical encoding read only the rotations and
these two tables.  One cached pass gauges every component along a
spanning tree and answers both connectivity and orientability; the
canonical encoding asks it once, before any candidate, so the encoder
itself never tests connectivity.

A face-traversal state is a dart with a local sense s of +1 or -1.
Faces are traced on ints: state (dart d, sense s) is 2d + (s == 1), so
of a state x, ``x >> 2`` is the edge, ``x >> 1`` the dart, ``x >> 1 & 1``
the end and ``x & 1`` the sense, and the ints sort as the (dart, sense)
pairs do.  Each map builds, once, the table of the next state of every
state, and the face walks follow it.

The canonical encoding is the least of the encodings from every start
dart in both senses.  It starts only at vertices of least degree, and
abandons a candidate as soon as its degree prefix exceeds the best's.
On a map of one degree, where the degree parts always tie, a candidate
is also abandoned at its first code above the best's, so most
candidates stop after a few entries; on any other map the codes of a
candidate whose degrees tie are compared once, at the end.  The result
is the same as encoding every candidate in full.
On a map whose vertices share one degree q and have q distinct
neighbours each, every candidate's first q + 1 codes are the same, and
only the candidates least at the next code are encoded.  They are found
in two phases: the least code belongs to a candidate whose next dart
leads to the second neighbour of its start, which one comparison per
candidate finds, and only those candidates are keyed in full; a map
without such candidates, such as one without triangles, keeps them all
unkeyed.
Dart numbers are lazy: a discovered vertex keeps the first number of its
darts, its gauge and the position of its entry dart, so any dart's
number takes O(1), and a vertex's darts in number order are one slice of
its doubled (or reversed doubled) rotation.  One pass over the darts
emits every code in one step each; a dart whose partner's vertex is
undiscovered discovers that vertex and emits its code in the same step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

from .errors import ValidationError


@dataclass(frozen=True)
class RotationMap:
    vertices: tuple[Hashable, ...]
    edges: tuple[tuple[int, int], ...]
    rotations: tuple[tuple[int, ...], ...]
    signature: tuple[int, ...]

    def __post_init__(self):
        """Validate the map and derive, in the same pass, per dart the
        index of the vertex it leads to, its partner's (``_far``), and its
        edge's sign (``_sign``)."""
        vertices, edges, signature = self.vertices, self.edges, self.signature
        n = len(vertices)
        if len(set(vertices)) != n:
            raise ValidationError("duplicate vertex ids in rotation map")
        if len(signature) != len(edges):
            raise ValidationError("signature length must match edge count")
        if any(s not in (1, -1) for s in signature):
            raise ValidationError("signatures must be +1 or -1")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge endpoint {u!r}/{v!r} not a vertex")
        if len(self.rotations) != n:
            raise ValidationError("rotations must have one row per vertex and no other row")
        far = [-1] * (2 * len(edges))
        for i, rot in enumerate(self.rotations):
            for x in rot:
                if not 0 <= x < len(far):
                    raise ValidationError(f"malformed dart {x!r} at {vertices[i]!r}")
                if edges[x >> 1][x & 1] != i:
                    raise ValidationError(f"dart {x!r} listed at wrong vertex {vertices[i]!r}")
                if far[x ^ 1] >= 0:
                    raise ValidationError(f"dart {x!r} listed twice")
                far[x ^ 1] = i
        if -1 in far:
            raise ValidationError("rotations must cover every dart exactly once")
        sign = [0] * len(far)
        sign[::2] = sign[1::2] = signature
        object.__setattr__(self, "_far", far)
        object.__setattr__(self, "_sign", sign)

    @cached_property
    def _components(self) -> tuple[int, bool]:
        """The number of components, and whether some edge's sign
        contradicts the gauges: each component is searched once from its
        least vertex, gauged 1, and gauged along a spanning tree.  A map
        is orientable exactly when some gauge makes every edge positive."""
        rots, far, sign = self.rotations, self._far, self._sign
        gauge = [0] * len(rots)
        count, twisted = 0, False
        for root in range(len(rots)):
            if gauge[root]:
                continue
            count += 1
            gauge[root] = 1
            found = [root]
            for v in found:
                g = gauge[v]
                for d in rots[v]:
                    u, s = far[d], g * sign[d]
                    if not gauge[u]:
                        gauge[u] = s
                        found.append(u)
                    elif gauge[u] != s:
                        twisted = True
        return count, twisted

    def is_connected(self) -> bool:
        return self._components[0] <= 1

    def is_orientable(self) -> bool:
        return not self._components[1]

    # -- faces -------------------------------------------------------------

    @cached_property
    def _successor(self) -> list[int]:
        """The next face-traversal state of every state.

        From state (d, s) the walk crosses d's edge, which turns the sense
        into s' = s·(the edge's sign), and leaves the far vertex by the
        dart after d ^ 1 in its rotation, counterclockwise when s' = 1 and
        clockwise otherwise, keeping sense s'.
        """
        succ = [0] * (4 * len(self.edges))
        sign = self._sign
        for rot in self.rotations:
            for before, d, after in zip(rot[-1:] + rot[:-1], rot, rot[1:] + rot[:1]):
                ccw, cw = 2 * after + 1, 2 * before
                arrive = 2 * (d ^ 1)  # the states crossing d's edge to here
                if sign[d] == 1:
                    succ[arrive], succ[arrive + 1] = cw, ccw
                else:
                    succ[arrive], succ[arrive + 1] = ccw, cw
        return succ

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """One traversal per face (each face is traced twice, in opposite
        directions; the lexicographically smaller traversal is kept).
        Walks start at the least unseen state, so the first traversal found
        is the smaller one; its reverse is marked seen, not walked."""
        succ = self._successor
        sign = self._sign
        seen = [False] * len(succ)
        kept: list[tuple[int, ...]] = []
        for start in range(len(succ)):
            if seen[start]:
                continue
            orbit = []
            state = start
            while not seen[state]:
                seen[state] = True
                orbit.append(state)
                state = succ[state]
            for x in orbit:
                # the reverse of (d, s) is (d ^ 1, -s·(d's sign))
                r = x ^ 2 ^ (sign[x >> 1] == 1)
                if seen[r]:
                    raise ValidationError("face traversal pairing failed; invalid map")
                seen[r] = True
            kept.append(tuple(orbit))
        return tuple(kept)

    def face_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(len(f) for f in self.faces))

    # -- canonical encoding -------------------------------------------------

    def canonical_encoding(self) -> tuple[int, ...]:
        """Lexicographic minimum over all starting darts and both global
        reflections; a complete invariant of the map up to relabelling,
        regauging and mirror image.

        The encoding from a start dart lists the degrees of the vertices
        in discovery order, then, per numbered dart, twice its partner's
        number plus one if the edge is negative in the gauge.  Its first
        entry is the start's degree, so only darts at vertices of least
        degree can win; :meth:`_starts` prunes these further on maps of
        one degree without loops or repeated neighbours.  Each candidate
        is compared with the best so far while it is built (on a map of
        several degrees, its codes only at the end) and abandoned once it
        is known to be greater.  A disconnected map is refused before any
        candidate is encoded.

        Every candidate reads the rotations, the per-dart tables and
        tables built from them once here: each vertex's rotation doubled
        as listed (its ring in gauge 1) and reversed (its ring in gauge
        -1), so that its darts in either gauge from any entry are one
        slice; per dart, its partner's positions in both rings of its
        partner's vertex.
        """
        rots, far, sign = self.rotations, self._far, self._sign
        if not self.is_connected():
            raise ValidationError("canonical encoding requires a connected map")
        degree = [len(rot) for rot in rots]
        ccw, cw = [0] * len(far), [0] * len(far)
        for rot in rots:
            last = len(rot) - 1
            for k, d in enumerate(rot):
                ccw[d ^ 1], cw[d ^ 1] = k, last - k
        rings = (None, [rot * 2 for rot in rots], [rot[::-1] * 2 for rot in rots])
        place = (None, ccw, cw)
        base, anchor = [0] * len(rots), [0] * len(rots)
        regular = len(set(degree)) == 1
        tables = (far, sign, degree, rings, place, base, anchor, regular)
        best = None
        for d, reflect in self._starts(rots, regular, far, sign, place):
            best = self._encode(tables, d, reflect, best) or best
        if best is None:
            raise ValidationError("canonical encoding requires an edge")
        return tuple(best[0] + best[1])

    @staticmethod
    def _starts(rots, regular, far, sign, place) -> list[tuple[int, int]]:
        """The (start dart, sense) candidates the least encoding is among,
        in ring order, each dart in sense 1 before sense -1.

        In general, every dart at a vertex of least degree, in both senses.
        On a map whose vertices all have one degree q >= 2 and whose every
        vertex's q darts lead to q distinct vertices, none itself, only the
        candidates whose code at index q + 1 is least.  That is exact:

        - every candidate's degree part is q, repeated once per vertex;
        - from dart d at v in sense r, v's darts d_0 = d, ..., d_(q-1) in
          ring order lead to q distinct new vertices u_0, ..., u_(q-1), so
          the codes at indices 0..q-1 are 2q, 4q, ..., 2q²;
        - u_0 is entered by d's partner in gauge r·sign(d), and that dart
          leads back to v's number 0 in v's gauge: the code at index q
          is 0.

        So candidates first differ at index q + 1, the code of u_0's next
        dart d' (:meth:`_key`), which orders them by the index i >= 1 of
        the vertex u_i that d' leads to, new vertices last.  The least
        candidates are therefore among those whose d' leads to u_1, if
        any does, and this takes one comparison per candidate.  Phase one
        finds these candidates and phase two keys only them.  When there
        are none, every candidate is returned unkeyed: the least encoding
        is among a superset just as well, and on a map without triangles,
        where every d' leads to a new vertex, all keys tie anyway.  Phase
        one reads per-dart tables of the next and the previous dart in
        each rotation.
        """
        q = min(map(len, rots), default=0)
        near = []  # (d, r, ring position of d, d', rotation of d's vertex)
        # a loop's two darts, or two darts to one neighbour, lead to one vertex
        if regular and q >= 2 and all(len(set(map(far.__getitem__, rot))) == q for rot in rots):
            # per dart, the next and the previous dart in its vertex's rotation
            nxt, prv = [0] * len(far), [0] * len(far)
            for rot in rots:
                b = rot[-1]
                for a in rot:
                    nxt[b], prv[a] = a, b
                    b = a
            # phase one: from d at v in sense r, d' is the dart after d's
            # partner x in u_0's ring in gauge r·sign(d), nxt[x] in gauge 1
            # and prv[x] in gauge -1, and u_1 is the vertex that v's dart
            # after d in its ring in gauge r leads to, through nxt[d] or prv[d]
            for rot in rots:
                for k, d in enumerate(rot):
                    x = d ^ 1
                    if sign[d] == 1:
                        ahead, behind = nxt[x], prv[x]
                    else:
                        ahead, behind = prv[x], nxt[x]
                    if far[ahead] == far[nxt[d]]:
                        near.append((d, 1, k, ahead, rot))
                    if far[behind] == far[prv[d]]:
                        near.append((d, -1, k, behind, rot))
        if not near:
            return [(d, r) for rot in rots if len(rot) == q for d in rot for r in (1, -1)]
        # phase two: p = (k + r) mod q is the position of the dart to u_1
        key = RotationMap._key
        keyed = [
            (key(q, rot, k, r, d1, (k + r) % q, sign, place), d, r)
            for d, r, k, d1, rot in near
        ]
        least = min(keyed)[0]
        return [(d, r) for c, d, r in keyed if c == least]

    @staticmethod
    def _key(q, rot, k, r, d1, p, sign, place) -> int:
        """The code at index q + 1 (see :meth:`_starts`) from the dart at
        position k of ``rot`` in sense r, where d' = ``d1`` leads to the
        neighbour u_i whose dart is at position p of ``rot``: 2·(q(1 + i)
        + the offset of the partner of d' from u_i's entry in u_i's gauge)
        + the sign bit.
        """
        s = r * sign[rot[k]]
        g = r * sign[rot[p]]
        c = 2 * (q * (1 + r * (p - k) % q) + (place[g][d1] - place[g][rot[p]]) % q)
        return c + (s * sign[d1] != g)

    @staticmethod
    def _encode(tables, start: int, reflect: int, best):
        """The (degrees, codes) encoding from dart ``start`` in sense
        ``reflect`` if it is less than ``best``, else None.

        Dart numbers are lazy.  A vertex u discovered when n darts are
        numbered owns the numbers from ``base[u]`` = n on, in the order
        of its ring in gauge ``gauge[u]`` from its entry dart, at position
        ``anchor[u]`` of that ring; its dart at position p of the ring has
        number base[u] + (p - anchor[u]) mod deg(u).  One pass walks the
        darts in number order and emits the code of each: a dart whose
        partner's vertex u is undiscovered discovers u, entered by the
        partner, and so codes 2·base[u].  The map is connected, so the
        pass reaches every vertex.

        Degrees are final once their vertex is discovered, and the
        candidate is abandoned as soon as its degree prefix is greater
        than the best's.  On a map of one degree (``regular``) the degree
        parts always tie, so each code is compared with the best's as it
        is emitted (``tie``) and the candidate abandoned at the first
        greater one; on any other map the codes are compared once, at the
        end.
        """
        far, sign, degree, rings, place, base, anchor, regular = tables
        gauge = [0] * len(degree)
        best_degrees, best_codes = best or ((), ())
        smaller = best is None
        tie = regular and not smaller
        v = far[start ^ 1]
        n = degree[v]  # the least degree, so it ties with best_degrees[0]
        gauge[v], base[v], anchor[v] = reflect, 0, place[reflect][start ^ 1]
        codes: list[int] = []
        found = [v]
        for v in found:
            g, a = gauge[v], anchor[v]
            for d in rings[g][v][a : a + degree[v]]:
                u = far[d]
                s = g * sign[d]
                q = gauge[u]
                if q:
                    c = 2 * (base[u] + (place[q][d] - anchor[u]) % degree[u]) + (s != q)
                else:
                    gauge[u], base[u], anchor[u] = s, n, place[s][d]
                    found.append(u)
                    c = 2 * n
                    q = degree[u]
                    n += q
                    if not smaller and q != best_degrees[len(found) - 1]:
                        if q > best_degrees[len(found) - 1]:
                            return None
                        smaller = True
                if tie and c != best_codes[len(codes)]:
                    if c > best_codes[len(codes)]:
                        return None
                    smaller, tie = True, False
                codes.append(c)
        return ([degree[v] for v in found], codes) if smaller or codes < best_codes else None
