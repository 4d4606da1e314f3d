"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` (or a seed) and returns plain
data: ``.lines`` texts, integer line triples, or structure descriptions.
The library only ever sees these generated inputs.  The named
configurations are copied here so the benchmark depends on nothing under
``tests/``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

FANO_LINES = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
MOBIUS_KANTOR_LINES = [(i, (i + 1) % 8, (i + 3) % 8) for i in range(8)]
PAPPUS_9_3_LINES = [
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (1, 5, 6), (2, 3, 7),
]
# The (10_3) configuration with no geometric realization.
ANTI_DESARGUES_LINES = [
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 7, 8),
    (2, 4, 7), (2, 6, 8), (3, 7, 9), (4, 6, 9), (5, 8, 9),
]

# A Euclidean Pappus arrangement (a x + b y = c) and its nine designated points.
PAPPUS_EUCLIDEAN_LINES = [
    (0, 1, 0), (1, -1, -1), (21, -29, -9), (3, -2, 0), (1, 1, 1),
    (3, -2, 3), (3, 1, 9), (6, -5, 0), (1, 3, 3),
]
PAPPUS_POINTS = [
    (0, 0), (1, 0), (3, 0), (0, 1), (2, 3), (5, 6),
    (Fraction(7, 3), 2), (Fraction(15, 23), Fraction(18, 23)), (Fraction(2, 5), Fraction(3, 5)),
]
PAPPUS_LABELS = ["A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3"]

LADDER = (12, 16, 20, 24, 28, 32)
WALK_SIZES = (8, 9, 10, 11)


def cyclic_lines(n: int) -> list[tuple[int, int, int]]:
    """The cyclic (n_3) configuration: lines {i, i+1, i+3} mod n."""
    return [(i, (i + 1) % n, (i + 3) % n) for i in range(n)]


def lines_text(lines) -> str:
    """Render point tuples as the ``.lines`` text format."""
    rows = [f"L{i}: " + " ".join(f"p{p}" for p in members) for i, members in enumerate(lines, start=1)]
    return "\n".join(rows) + "\n"


def min_lines(v: int) -> int:
    """The fewest lines (at least 5) for ``v`` points on which the fill of
    :func:`random_structure` always fits two incidences per point."""
    return max(5, -(-2 * v // 3))


def random_structure(rng: random.Random, v: int, b: int) -> list[list[int]]:
    """A connected structure on ``v`` points and ``b`` >= ``min_lines(v)``
    lines of 2-4 points each, every point on at least two lines.

    Lines are filled with random points; then every point on fewer than
    two lines is added to the emptiest line without it, or, when every
    line without it is full, takes the place of a point on three or more
    lines.  So the result is built in one pass instead of by rejection.
    In the rare case that it is disconnected, one more incidence, or a
    new 2-point line, joins each pair of components.
    """
    sizes = [rng.randint(2, 4) for _ in range(b)]
    deg = [0] * v
    members: list[list[int]] = [[] for _ in range(b)]

    def add(line: int, p: int) -> None:
        members[line].append(p)
        deg[p] += 1

    for line, size in enumerate(sizes):
        for p in rng.sample(range(v), size):
            add(line, p)
    for p in range(v):
        while deg[p] < 2:
            roomy = [l for l in range(b) if p not in members[l] and len(members[l]) < 4]
            if roomy:
                add(min(roomy, key=lambda l: (len(members[l]), l)), p)
                continue
            line, q = next(
                (l, q) for l in range(b) if p not in members[l]
                for q in members[l] if deg[q] > 2
            )
            members[line][members[line].index(q)] = p
            deg[q] -= 1
            deg[p] += 1
    _connect(rng, members, v)
    for row in members:
        row.sort()
    return members


def _connect(rng: random.Random, members: list[list[int]], v: int) -> None:
    """Join the Levi-graph components: add a point of one component to a
    line of another with room, or else join them by a new 2-point line."""
    while True:
        comp = _components(members, v)
        if len(comp) == 1:
            return
        (first_points, first_lines), (other_points, other_lines) = comp[0], comp[1]
        line = next((l for l in first_lines + other_lines if len(members[l]) < 4), None)
        if line is None:
            members.append([rng.choice(sorted(first_points)), rng.choice(sorted(other_points))])
        else:
            members[line].append(rng.choice(sorted(other_points if line in first_lines else first_points)))


def _components(members: list[list[int]], v: int) -> list[tuple[set[int], list[int]]]:
    parent = list(range(v))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in members:
        for p in row[1:]:
            parent[find(p)] = find(row[0])
    groups: dict[int, tuple[set[int], list[int]]] = {}
    for p in range(v):
        groups.setdefault(find(p), (set(), []))[0].add(p)
    for line, row in enumerate(members):
        groups[find(row[0])][1].append(line)
    return sorted(groups.values(), key=lambda g: min(g[0]))


def realize_map_inputs(seed: int) -> list[tuple[str, str]]:
    """(name, .lines text) pairs: the cyclic ladder, four named
    configurations and 100 random structures."""
    rng = random.Random(f"realize-map/{seed}")
    inputs = [(f"cyclic{n}", lines_text(cyclic_lines(n))) for n in LADDER]
    inputs += [
        ("fano", lines_text(FANO_LINES)),
        ("mobius-kantor", lines_text(MOBIUS_KANTOR_LINES)),
        ("pappus", lines_text(PAPPUS_9_3_LINES)),
        ("anti-desargues", lines_text(ANTI_DESARGUES_LINES)),
    ]
    # Point and line counts follow i instead of being drawn, so that every
    # seed has the same mix of sizes and only the incidences differ.
    for i in range(100):
        v = 6 + i % 9
        b = min_lines(v) + (i // 9) % (15 - min_lines(v))
        inputs.append((f"random{i}", lines_text(random_structure(rng, v, b))))
    return inputs


def _primitive(a: int, b: int, c: int) -> tuple[int, int, int]:
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    if (a, b, c) < (0, 0, 0):
        a, b, c = -a, -b, -c
    return a, b, c


def _concurrent(lines) -> bool:
    """True when every line passes through one projective point."""
    h = [(a, b, -c) for a, b, c in lines]
    for q in h[1:]:
        p = (h[0][1] * q[2] - h[0][2] * q[1], h[0][2] * q[0] - h[0][0] * q[2], h[0][0] * q[1] - h[0][1] * q[0])
        if any(p):
            return all(l[0] * p[0] + l[1] * p[1] + l[2] * p[2] == 0 for l in h)
    return True


def random_arrangement(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """``n`` distinct lines a x + b y = c with coefficients in [-9, 9], not
    all through one point.  Parallel pairs are kept on purpose: they force
    the sweep to change chart or shear."""
    while True:
        seen: set[tuple[int, int, int]] = set()
        lines = []
        while len(lines) < n:
            a, b, c = (rng.randint(-9, 9) for _ in range(3))
            if a == 0 and b == 0:
                continue
            key = _primitive(a, b, c)
            if key not in seen:
                seen.add(key)
                lines.append((a, b, c))
        if not _concurrent(lines):
            return lines


# Lines per seeded random arrangement in one straighten-euclid pass, and
# per arrangement that is the same for every seed.  The 6-line group is
# the largest, so that the median op falls inside it; the four fixed
# arrangements are the costliest ops and just over a tenth of the pass,
# so that the p90 falls on one of them and not on the most costly of the
# seeded ones.
STRAIGHTEN_SIZES = (5,) * 9 + (6,) * 14 + (7,) * 6
STRAIGHTEN_FIXED_SIZES = (8, 8, 8, 10)


def straighten_inputs(seed: int) -> list[tuple[str, dict]]:
    """(name, arrangement) pairs: seeded random arrangements, then the fixed
    arrangements and Pappus, which are the same for every seed.

    The fixed drawings cost about half a pass and their cost depends on
    their combinatorial type, so drawing them per seed would make one
    seed's throughput incomparable with another's.
    """
    rng = random.Random(f"straighten-euclid/{seed}")
    inputs = [
        (f"lines{n}.{i}", {"lines": random_arrangement(rng, n)})
        for i, n in enumerate(STRAIGHTEN_SIZES)
    ]
    for i, n in enumerate(STRAIGHTEN_FIXED_SIZES):
        fixed = random.Random(f"straighten-euclid/fixed{i}")
        inputs.append((f"fixed{n}.{i}", {"lines": random_arrangement(fixed, n)}))
    inputs.append((
        "pappus",
        {"lines": PAPPUS_EUCLIDEAN_LINES, "points": PAPPUS_POINTS, "labels": PAPPUS_LABELS},
    ))
    return inputs


STEPS_PER_WALK = 15


def equivalence_inputs(seed: int) -> list[tuple[str, str, int]]:
    """(name, .lines text, walk seed) per walk."""
    rng = random.Random(f"equivalence/{seed}")
    return [(f"cyclic{n}", lines_text(cyclic_lines(n)), rng.randrange(2**32)) for n in WALK_SIZES]


def relabel(rng: random.Random, lines) -> str:
    """The structure as ``.lines`` text under fresh random point and line
    names, with the line order and the order inside each line shuffled."""
    points = sorted({p for row in lines for p in row})
    names = rng.sample(range(10**6), len(points) + len(lines))
    point_name = {p: f"x{names[i]}" for i, p in enumerate(points)}
    rows = []
    for j, row in enumerate(lines):
        tokens = [point_name[p] for p in row]
        rng.shuffle(tokens)
        rows.append(f"y{names[len(points) + j]}: " + " ".join(tokens))
    rng.shuffle(rows)
    return "\n".join(rows) + "\n"


CATALOGUE_OPS = 2000
CATALOGUE_RANDOM = 40


def catalogue_inputs(seed: int) -> list[tuple[str, str]]:
    """(base name, relabelled .lines text) pairs in a seeded order.

    Every base is seen first in its own labelling, so it becomes the
    representative that later relabellings are matched against; the
    bases and those first ops are the same for every seed, and only the
    relabellings and their order follow the seed.  The cost of an
    isomorphism search varies by an order of magnitude between structures
    and between labellings of the representative, so drawing either per
    seed would make one seed's pass incomparable with another's.
    """
    base_rng = random.Random("catalogue/bases")
    bases = [("fano", FANO_LINES), ("mobius-kantor", MOBIUS_KANTOR_LINES)]
    for i in range(CATALOGUE_RANDOM):
        v = 6 + i % 4
        bases.append((f"random{i}", random_structure(base_rng, v, base_rng.randint(min_lines(v), 9))))
    rng = random.Random(f"catalogue/{seed}")
    relabelled = [
        (name, relabel(rng, lines))
        for name, lines in (bases[i % len(bases)] for i in range(len(bases), CATALOGUE_OPS))
    ]
    rng.shuffle(relabelled)
    return [(name, lines_text(lines)) for name, lines in bases] + relabelled
