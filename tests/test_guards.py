"""The size guards: claims that must hold at scale, one row of ``GUARDS``
each.  ``test_guard`` runs each row's body in a fresh interpreter: the
``-O`` row needs its flag, the (800_3) row reads its own peak memory, and
a timeout must be able to kill a runaway solve.  Bodies raise on failure,
never by ``assert``, which ``-O`` strips.  ``-k walk`` selects one row.
"""

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

from quasiline import (
    Move,
    are_swap_equivalent,
    configuration_signature,
    default_plan,
    fingerprint,
    is_lineal,
    make_sequence,
    scheme_from_realization,
    trace_and_summarize,
)
from quasiline.wiring import (
    GeneralizedWiringDiagram,
    diagram_from_lines,
    diagram_to_json_dict,
    drawing_to_json_dict,
    insert_digon,
    straighten,
    trace_faces_disk,
)
from quasiline.wiring.straighten import _strictly_convex

from oracles import cyclic, realized, seeded_arrangement, seeded_walk

# timeout in seconds; body, a function of this module
Guard = namedtuple("Guard", "name reason flags timeout body")
GUARDS = []


def guard(reason, timeout, *flags):
    if not isinstance(timeout, (int, float)) or not timeout > 0:
        raise ValueError(f"a guard needs a timeout in seconds, got {timeout!r}")

    def row(body):
        GUARDS.append(Guard(body.__name__, reason, flags, timeout, body))
        return body
    return row


def expect(got, want):
    if got != want:
        raise AssertionError(f"got {got!r:.200}, expected {want!r:.200}")


def expect_sha256(text, want):
    expect(hashlib.sha256(text.encode()).hexdigest(), want)


def drawing_text(n):
    return json.dumps(drawing_to_json_dict(straighten(seeded_arrangement(n))), sort_keys=True)


@guard("the seeded 25-line arrangement; a dense O(m^3) solve takes about 45 s", 60)
def sparse_tutte_solve():
    straighten(seeded_arrangement(25))


@guard("the seeded 30-line drawing keeps the SHA-256 it had before the face stars were eliminated "
       "in closed form, and straightens in bounded time", 30)
def star_block():
    expect_sha256(drawing_text(30), "c18794999ae44c49537b2049218f3fdbde804f3e12d6890262aeed9659b00c5b")


@guard("python -O strips assert statements; the seeded 20-line drawing keeps its SHA-256, which "
       "test_twenty_line_drawing_bytes_are_golden checks with them", 20, "-O")
def optimized_mode_drawing():
    expect_sha256(drawing_text(20), "7114a2e23a1be2d9bc2a28fbf03e11b9b6f9dba647fd84f152f04265cf0dd8c3")


@guard("the 202-line near-pencil, 200 lines through the origin plus x = 1 and x + y = 10^6, has "
       "an outer walk of 204; a float retry that shifted every angle refused it", 20)
def circle_polygon():
    d = diagram_from_lines([(s, -1, 0) for s in range(1, 201)] + [(1, 0, 1), (1, 1, 10**6)])
    drawing = straighten(d)
    # straighten audits its own drawing; the pairwise oracles take seconds here
    expect((d.event_count, len(set(drawing.positions)), len(drawing.outer_cycle)), (402, 402, 204))
    expect(_strictly_convex([drawing.positions[v] for v in drawing.outer_cycle]), True)


@guard("one full reversal of 100 000 wires; the permutation after it, and a digon inserted there, "
       "read its one cached window in linear time, where scanning that window once per wire takes "
       "about 50 s", 10)
def track_lookup():
    n = 100_000
    d = GeneralizedWiringDiagram(n, (Move(1, n),))
    expect(d.permutation_before(1), tuple(range(n, 0, -1)))
    expect(insert_digon(d, (2, 1), 1).moves[1:], (Move(n - 1, 2), Move(n - 1, 2)))


@guard("500 disjoint 2-windows against their reverse order; no breadth-first search over the 500! "
       "orders finishes", 30)
def swap_equivalence():
    a = make_sequence(1000, [(2 * i + 1, 2) for i in range(500)])
    b = make_sequence(1000, [(2 * i + 1, 2) for i in reversed(range(500))])
    expect(len(are_swap_equivalent(a, b)), 124750)


@guard("cyclic (800_3); pricing every point by a pass over the whole permutation takes about 50 s", 20)
def plan_pricing():
    expect(len(default_plan(cyclic(800)).point_order), 800)


@guard("plan, realize, diagram, faces, scheme and summary of cyclic (800_3) in bounded memory; a "
       "table of one permutation per event peaks at about 2.6 GB, and faces traced on the whole "
       "arrangement map at about 590 MB", 30)
def pipeline_800():
    d = realized(cyclic(800))
    expect(len(trace_faces_disk(d)), 1 - d.event_count + sum(m.length for m in d.moves))
    summary = trace_and_summarize(scheme_from_realization(d))
    expect((summary.V, summary.E), (800, 2400))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    if peak >= 500_000:
        raise AssertionError(f"peak RSS {peak} KiB")


@guard("the fingerprints of the realizations of cyclic (7_3) ... (80_3) keep the SHA-256 they had "
       "before the surface maps read one int dart table; about 0.65 s", 20)
def fingerprint_digest():
    prints = [fingerprint(scheme_from_realization(realized(cyclic(n)))) for n in range(7, 81)]
    expect_sha256("\n".join(prints), "27ad54c29c857e5c024e008189adb4bad69afe90d39e1c7967cee70daf278db5")


@guard("the face lengths of the realizations of cyclic (7_3) ... (80_3) and of the seeded 5- to "
       "30-line arrangements keep the SHA-256 they had when faces were traced as arc sides; about "
       "0.8 s", 20)
def face_length_digest():
    diagrams = [realized(cyclic(n)) for n in range(7, 81)] + [seeded_arrangement(n) for n in range(5, 31)]
    lengths = [[len(f) for f in trace_faces_disk(d)] for d in diagrams]
    expect_sha256(repr(lengths), "a17aa6a73e595b6d1ae98cc347f19f2908090a9fb8b36d12144951c032bb681b")


@guard("seeded 200-step walks of admissible digon and triangle moves from the realizations of "
       "cyclic (8_3) ... (11_3) keep every step's fingerprint and the SHA-256 of their diagrams' "
       "JSON from before the steps stopped rebuilding their tables; about 0.5 s", 20)
def walk_digest():
    texts = []
    for n in range(8, 12):
        start = fingerprint(scheme_from_realization(realized(cyclic(n))))
        for step, d in enumerate(seeded_walk(random.Random(n), cyclic(n), 200)):
            if fingerprint(scheme_from_realization(d)) != start:
                raise AssertionError(f"fingerprint changed at step {step} of the ({n}_3) walk")
            texts.append(json.dumps(diagram_to_json_dict(d), sort_keys=True))
    expect_sha256("".join(texts), "2cf695c38bd6ceb8ce0f41def95d0a38220b861fa5580f645846711284ba8cad")


@guard("cyclic (20 000_3) is lineal with signature (20000, 3, 20000, 3); intersecting the line "
       "sets of every pair of points takes about 3 s at (3000_3) and grows quadratically", 10)
def lineal_scan():
    structure = cyclic(20_000)
    expect(is_lineal(structure), True)
    expect(configuration_signature(structure), (20000, 3, 20000, 3))


@guard("sweep of a seeded 150-line arrangement; a dict of Fraction abscissas per shear candidate "
       "takes about 12 s", 8)
def shear_search():
    expect(seeded_arrangement(150).n, 150)


def pytest_generate_tests(metafunc):
    # parametrized by this hook, so a row's interpreter does not import pytest
    metafunc.parametrize("row", GUARDS, ids=[row.name for row in GUARDS])


def test_guard(row):
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = f"from test_guards import {row.name}; {row.name}()"
    done = subprocess.run([sys.executable, *row.flags, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=row.timeout)
    assert done.returncode == 0, done.stderr
