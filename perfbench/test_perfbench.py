"""Tests of the benchmark itself: generators, printed metrics, failure counting."""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, run
from perfbench.spans import NoSpans, Spans
from perfbench.workloads import WORKLOADS, Catalogue

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _connected(lines) -> bool:
    points = {p for row in lines for p in row}
    reached, frontier = set(), [next(iter(points))]
    while frontier:
        p = frontier.pop()
        if p not in reached:
            reached.add(p)
            frontier += [q for row in lines if p in row for q in row]
    return reached == points


@pytest.mark.parametrize("v, b", [(6, 5), (6, 14), (9, 6), (9, 9), (14, 10), (14, 14)])
def test_random_structure_terminates_within_its_ranges(v, b):
    assert b >= inputs.min_lines(v)
    for seed in range(200):
        lines = inputs.random_structure(random.Random(seed), v, b)
        degree: dict[int, int] = {}
        for row in lines:
            assert 2 <= len(row) <= 4 and len(set(row)) == len(row)
            for p in row:
                degree[p] = degree.get(p, 0) + 1
        assert len(degree) == v
        assert len(lines) >= b
        assert min(degree.values()) >= 2
        assert _connected(lines)


def test_random_arrangement_is_distinct_and_not_a_pencil():
    rng = random.Random(3)
    for n in (5, 6, 7, 8, 10):
        lines = inputs.random_arrangement(rng, n)
        assert len({inputs._primitive(*l) for l in lines}) == n
        assert all((a, b) != (0, 0) and max(map(abs, (a, b, c))) <= 9 for a, b, c in lines)
        assert not inputs._concurrent(lines)
    assert inputs._concurrent([(1, 0, 0), (0, 1, 0), (1, 1, 0)])


@pytest.mark.parametrize("generate", [
    inputs.realize_map_inputs,
    inputs.straighten_inputs,
    inputs.equivalence_inputs,
    inputs.catalogue_inputs,
])
def test_generators_are_deterministic_per_seed(generate):
    assert generate(5) == generate(5)
    assert generate(5) != generate(6)


def _quick(name: str, count: int):
    """The workload ``name`` and its first ``count`` ops on seed 0."""
    workload = WORKLOADS[name]
    prepared = workload.prepare(0)
    if name == "equivalence":
        prepared = (prepared[0], prepared[1][:count])
    else:
        prepared = prepared[:count]
    return workload, prepared


def _printed_metrics(text: str) -> dict[str, str]:
    printed = {}
    for line in text.splitlines():
        fields = line.split()
        if line.startswith("  ") and len(fields) == 3:
            printed[fields[0]] = fields[2]
    return printed


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, kind):
    workload, prepared = _quick("catalogue", 60)
    passes = run.measure(workload, prepared, 0.0, Spans() if trace else None, None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.report("catalogue", 0, passes, [0.1, 0.2, 0.3], trace)
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert _printed_metrics(out.getvalue()) == expected
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["attempted"] >= run.MIN_SAMPLES and result["failed"] == 0 and result["correct"]


class CorruptedCatalogue(Catalogue):
    """Catalogue whose third op reports a wrong class, and whose fifth raises."""

    def __init__(self) -> None:
        self.calls = 0

    def op(self, item, state, spans):
        self.calls += 1
        if self.calls == 5:
            raise RuntimeError("injected failure")
        return super().op(item, state, spans)

    def check(self, item, out, state):
        text, problems, counts = super().check(item, out, state)
        if self.calls == 3:
            text = text.replace('"class"', '"klass"')
        return text, problems, counts


def test_corrupted_output_counts_as_failed_and_run_continues():
    workload, prepared = _quick("catalogue", 12)
    reference = run.run_pass(workload, prepared, NoSpans(), None)
    assert not reference.failed
    corrupted = run.run_pass(CorruptedCatalogue(), prepared, NoSpans(), reference.digests)
    assert corrupted.failed == {2, 4}
    assert len(corrupted.latencies) == 12
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.report("catalogue", 0, [corrupted], [0.1], False)
    assert (result["attempted"], result["failed"], result["correct"]) == (12, 2, False)
    assert f"error_rate {2 / 12}" in out.getvalue()


def test_broken_invariant_counts_as_failed():
    workload, prepared = _quick("equivalence", 3)
    walks = [(name, diagram, "m-not-the-start", seed) for name, diagram, _, seed in prepared[0]]
    result = run.run_pass(workload, (walks, prepared[1]), NoSpans(), None)
    assert result.failed == {0, 1, 2}


def test_spans_self_time_subtracts_children():
    spans = Spans()
    spans.op = 0
    with spans.span("op"):
        with spans.span("child"):
            pass
    (_, s0, e0, p0, op0), (_, s1, e1, p1, op1) = spans.records
    assert (p0, p1, op0, op1) == (-1, 0, 0, 0)
    totals = spans.self_times(0, [2.0])
    assert totals["child"] == pytest.approx(2 * (e1 - s1))
    assert totals["op"] == pytest.approx(2 * ((e0 - s0) - (e1 - s1)))


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalogue", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
