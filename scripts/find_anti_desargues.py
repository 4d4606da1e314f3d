#!/usr/bin/env python3
"""One-shot oracle: enumerate the (10_3) configurations and identify the
unique one admitting no geometric realization (random exact rational
construction attempts).  The resulting line list is frozen into the test
corpus."""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quasiline import are_isomorphic, build, is_lineal  # noqa: E402


def enumerate_10_3():
    """All (10_3) configurations with symmetry-reduced backtracking:
    the three lines through point 0 are pinned to {0,1,2},{0,3,4},{0,5,6}."""
    first = [frozenset({0, 1, 2}), frozenset({0, 3, 4}), frozenset({0, 5, 6})]
    solutions = []

    def extend(lines, degree, pairs):
        if len(lines) == 10:
            solutions.append(tuple(sorted(tuple(sorted(l)) for l in lines)))
            return
        # next point needing more lines
        p = min((q for q in range(10) if degree[q] < 3))
        candidates = []
        for rest in itertools.combinations(range(p + 1, 10), 2):
            a, b = rest
            line = frozenset({p, a, b})
            if degree[a] >= 3 or degree[b] >= 3:
                continue
            if (p, a) in pairs or (p, b) in pairs or (a, b) in pairs:
                continue
            candidates.append(line)
        for line in candidates:
            ps = sorted(line)
            new_pairs = set(itertools.combinations(ps, 2))
            for q in ps:
                degree[q] += 1
            pairs.update(new_pairs)
            extend(lines + [line], degree, pairs)
            for q in ps:
                degree[q] -= 1
            pairs.difference_update(new_pairs)

    degree = {q: 0 for q in range(10)}
    degree[0] = 3
    for l in first:
        for q in l:
            if q:
                degree[q] += 1
    pairs = set()
    for l in first:
        pairs.update(itertools.combinations(sorted(l), 2))
    extend(first, degree, pairs)
    return solutions


def to_structure(lines):
    labels = ["".join(str(x) for x in l) for l in lines]
    flags = [(p, lab) for l, lab in zip(lines, labels) for p in l]
    return build(list(range(10)), labels, flags)


def triangle_key(lines):
    """Isomorphism-invariant bucket key: triangle and quadrilateral census."""
    line_of_pair = {}
    for l in lines:
        for a, b in itertools.combinations(sorted(l), 2):
            line_of_pair[(a, b)] = l

    def joining(a, b):
        return line_of_pair.get((min(a, b), max(a, b)))

    tri_point = {p: 0 for p in range(10)}
    triangles = 0
    for t in itertools.combinations(range(10), 3):
        ls = {joining(a, b) for a, b in itertools.combinations(t, 2)}
        if None not in ls and len(ls) == 3:
            triangles += 1
            for p in t:
                tri_point[p] += 1
    quad_point = {p: 0 for p in range(10)}
    quads = 0
    for t in itertools.combinations(range(10), 4):
        for mid in itertools.permutations(t[1:]):
            if mid[0] > mid[2]:
                continue  # each 4-cycle once
            cycle = (t[0],) + mid
            ls = [joining(cycle[i], cycle[(i + 1) % 4]) for i in range(4)]
            if None in ls or len(set(ls)) != 4:
                continue
            quads += 1
            for p in cycle:
                quad_point[p] += 1
    # refinement to stability: each point repeatedly sees the multiset of
    # (shared-line size is constant, so just colors) of its collinear points
    neighbors = {p: set() for p in range(10)}
    for l in lines:
        for a, b in itertools.combinations(l, 2):
            neighbors[a].add(b)
            neighbors[b].add(a)
    color = {p: (tri_point[p], quad_point[p]) for p in range(10)}
    history = []
    for _ in range(6):
        palette: dict[tuple, int] = {}
        fresh = {}
        for p in range(10):
            key = (color[p], tuple(sorted(color[q] for q in neighbors[p])))
            fresh[p] = palette.setdefault(key, len(palette))
        # renumber canonically by multiset rank so ids are label-independent
        rank = {c: i for i, c in enumerate(sorted(set(fresh.values()), key=lambda c: sorted(
            key for key, v in palette.items() if v == c
        )))}
        color = {p: rank[fresh[p]] for p in range(10)}
        history.append(tuple(sorted(color.values())))
    line_profile = tuple(sorted(tuple(sorted(color[p] for p in l)) for l in lines))
    return (triangles, quads, tuple(history), line_profile)


def dedupe(solutions, rng):
    """Group by the census key, split groups by exact isomorphism where the
    key is too coarse, and cross-check the representatives pairwise.

    Exactly ten (10_3) configurations exist (classical); the final class
    count is asserted against that.
    """
    groups: dict[tuple, list] = {}
    for lines in solutions:
        groups.setdefault(triangle_key(lines), []).append(lines)
    print(f"invariant groups: {len(groups)} sizes {sorted(len(g) for g in groups.values())}")
    reps = []
    for key, members in sorted(groups.items()):
        group_reps = [(members[0], to_structure(members[0]))]
        mixed = False
        for lines in rng.sample(members, min(30, len(members))):
            if are_isomorphic(to_structure(lines), group_reps[0][1]) is None:
                mixed = True
                break
        if mixed:
            print(f"group of size {len(members)} is mixed; exact dedupe...")
            group_reps = []
            for lines in members:
                c = to_structure(lines)
                for _, rep in group_reps:
                    if are_isomorphic(c, rep) is not None:
                        break
                else:
                    group_reps.append((lines, c))
            print(f"  -> {len(group_reps)} classes")
        for lines, rep in group_reps:
            assert is_lineal(rep)
        reps.extend(group_reps)
    for (l1, c1), (l2, c2) in itertools.combinations(reps, 2):
        assert are_isomorphic(c1, c2) is None, "representatives collide"
    return reps


def try_realize_symbolic(lines, rng, attempts=60):
    """Realizability over the real projective plane, one attempt at a time.

    Points are placed in a randomized order preferring forced placements
    (two determined incident lines) over free ones.  All free choices are
    random rationals except one symbolic parameter t; the final point is
    forced by two of its lines and its third incidence becomes a
    polynomial condition on t.  Coordinates are kept as coprime
    polynomial triples, so every test is exact polynomial arithmetic.
    The configuration is realizable iff some attempt yields a real root
    (or an identically-zero condition) with a nondegenerate picture.
    """
    import sympy

    t = sympy.Symbol("t")
    points = sorted({p for l in lines for p in l})
    incident = {p: [l for l in lines if p in l] for p in points}

    def cross(u, v):
        return (
            sympy.expand(u[1] * v[2] - u[2] * v[1]),
            sympy.expand(u[2] * v[0] - u[0] * v[2]),
            sympy.expand(u[0] * v[1] - u[1] * v[0]),
        )

    def dot(u, v):
        return sympy.expand(u[0] * v[0] + u[1] * v[1] + u[2] * v[2])

    def normalize(v):
        polys = [sympy.Poly(x, t, domain="QQ") for x in v]
        g = polys[0]
        for p in polys[1:]:
            g = g.gcd(p)
        if g.is_zero:
            return (sympy.Integer(0),) * 3
        out = []
        for p in polys:
            q, r = sympy.div(p.as_expr(), g.as_expr(), t)
            out.append(sympy.expand(q))
        return tuple(out)

    def rand_rat():
        return sympy.Rational(rng.randint(-12, 12), rng.randint(1, 6))

    for _ in range(attempts):
        pos: dict = {}
        remaining = list(points)
        n_free = len(points)
        symbol_slot = rng.randint(1, 4)
        free_seen = 0
        aborted = False
        final_condition = None
        while remaining:
            def determined_lines(p):
                out = []
                for l in incident[p]:
                    placed = [q for q in l if q in pos]
                    if len(placed) >= 2:
                        out.append(cross(pos[placed[0]], pos[placed[1]]))
                return out

            counts = {p: len(determined_lines(p)) for p in remaining}
            eligible = [q for q in remaining if counts[q] <= 2]
            if not eligible:
                if len(remaining) == 1:
                    eligible = remaining[:]
                else:
                    aborted = True
                    break
            best = max(counts[q] for q in eligible)
            p = rng.choice([q for q in eligible if counts[q] == best])
            remaining.remove(p)
            determined = determined_lines(p)
            if len(determined) >= 3 and remaining:
                aborted = True
                break
            if len(determined) >= 2:
                cand = normalize(cross(determined[0], determined[1]))
                if all(x == 0 for x in cand):
                    aborted = True
                    break
                pos[p] = cand
                if len(determined) == 3:
                    final_condition = dot(determined[2], cand)
            elif len(determined) == 1:
                a, b, c = determined[0]
                free_seen += 1
                u = t if free_seen == symbol_slot else rand_rat()
                # homogeneous point on the line ax+by+cz=0 parametrized by u
                if sympy.expand(b) != 0:
                    pos[p] = normalize((u * b, sympy.expand(-a * u - c), b))
                elif sympy.expand(a) != 0:
                    pos[p] = normalize((-c, u * a, a))
                else:
                    aborted = True
                    break
            else:
                free_seen += 1
                if free_seen == symbol_slot:
                    pos[p] = (t, rand_rat(), sympy.Integer(1))
                else:
                    pos[p] = (rand_rat(), rand_rat(), sympy.Integer(1))
        if aborted:
            continue

        def nondegeneracy_polys():
            exprs = []
            for q1, q2 in itertools.combinations(points, 2):
                c = cross(pos[q1], pos[q2])
                exprs.append(sympy.expand(c[0] ** 2 + c[1] ** 2 + c[2] ** 2))
            geom = {}
            for l in lines:
                ps = sorted(l)
                geom[l] = cross(pos[ps[0]], pos[ps[1]])
            for l1, l2 in itertools.combinations(lines, 2):
                c = cross(geom[l1], geom[l2])
                exprs.append(sympy.expand(c[0] ** 2 + c[1] ** 2 + c[2] ** 2))
            for q in points:
                for l in lines:
                    if q not in l:
                        exprs.append(dot(geom[l], pos[q]))
            return exprs

        def nondegenerate_at(val, minpoly=None):
            for expr in nondegeneracy_polys():
                poly = sympy.Poly(expr, t, domain="QQ")
                if poly.is_zero:
                    return False
                if minpoly is None:
                    if poly.eval(val) == 0:
                        return False
                else:
                    if sympy.rem(poly.as_expr(), minpoly, t) == 0:
                        return False
            return True

        if final_condition is None:
            if nondegenerate_at(rand_rat()):
                return True
            continue
        poly = sympy.Poly(final_condition, t, domain="QQ")
        if poly.is_zero:
            for _ in range(6):
                if nondegenerate_at(rand_rat()):
                    return True
            continue
        if poly.degree() == 0:
            continue
        for root in sympy.polys.polytools.real_roots(poly):
            if root.is_rational:
                if nondegenerate_at(sympy.Rational(root)):
                    return True
            else:
                mp = sympy.minimal_polynomial(root, t)
                if nondegenerate_at(None, minpoly=mp):
                    return True
    return False


def try_realize(lines, rng, attempts=600):
    """Random exact rational construction; True on first success.

    Points are placed in a randomized greedy order that always picks a
    point with the fewest already-determined incident lines, so free
    choices come first and forced intersections (whose extra incidences
    must hold automatically, theorem-style) come last.
    """
    points = sorted({p for l in lines for p in l})
    incident = {p: [l for l in lines if p in l] for p in points}

    def rand_fraction():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    def cross(u, v):
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    for _ in range(attempts):
        pos: dict[int, tuple] = {}
        remaining = list(points)
        ok = True
        while remaining and ok:
            def determined_lines(p):
                out = []
                for l in incident[p]:
                    placed = [q for q in l if q in pos]
                    if len(placed) >= 2:
                        out.append(cross(pos[placed[0]], pos[placed[1]]))
                return out
            counts = {p: len(determined_lines(p)) for p in remaining}
            eligible = [q for q in remaining if counts[q] <= 2] or remaining[:]
            best = max(counts[q] for q in eligible)
            p = rng.choice([q for q in eligible if counts[q] == best])
            remaining.remove(p)
            determined = determined_lines(p)
            if len(determined) >= 2:
                cand = cross(determined[0], determined[1])
                if cand == (0, 0, 0):
                    ok = False
                    break
                if any(dot(cand, ell) != 0 for ell in determined[2:]):
                    ok = False
                    break
                pos[p] = cand
            elif len(determined) == 1:
                a, b, c = determined[0]
                t = rand_fraction()
                if b != 0:
                    pos[p] = (t, Fraction(-a * t - c, b), Fraction(1))
                elif a != 0:
                    pos[p] = (Fraction(-c, a), t, Fraction(1))
                else:
                    ok = False
                    break
            else:
                pos[p] = (rand_fraction(), rand_fraction(), Fraction(1))
        if not ok:
            continue
        # distinct points
        def norm(v):
            for x in v:
                if x != 0:
                    return tuple(y / x for y in v)
            return v
        if len({norm(v) for v in pos.values()}) != len(points):
            continue
        # verify collinearity of every line and absence of extra incidences
        geom_lines = {}
        good = True
        for l in lines:
            ps = sorted(l)
            ell = cross(pos[ps[0]], pos[ps[1]])
            if ell == (0, 0, 0) or dot(ell, pos[ps[2]]) != 0:
                good = False
                break
            geom_lines[l] = ell
        if not good:
            continue
        if len({norm(v) for v in geom_lines.values()}) != len(lines):
            continue
        for p in points:
            for l in lines:
                if p not in l and dot(geom_lines[l], pos[p]) == 0:
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


def main():
    solutions = enumerate_10_3()
    print(f"labeled solutions with pinned point-0 star: {len(solutions)}")
    rng = random.Random(20140701)
    classes = dedupe(solutions, rng)
    print(f"isomorphism classes: {len(classes)}")
    assert len(classes) == 10, "expected exactly ten (10_3) configurations"
    failures = []
    for i, (lines, _) in enumerate(classes):
        realized = try_realize(lines, rng) or try_realize_symbolic(lines, rng)
        print(f"class {i}: lines={lines} realizable={realized}")
        if not realized:
            failures.append(lines)
    assert len(failures) == 1, f"expected exactly one non-realizable class, got {len(failures)}"
    print("anti-Desargues line list:")
    print(failures[0])


if __name__ == "__main__":
    main()
