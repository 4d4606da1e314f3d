"""Run one benchmark workload against the library in ``src/`` and print its metrics.

    python3 perfbench/run.py --workload realize-map --seed 0 --seconds 28 --trace 0

Run from the repository root.  One process is one closed-loop client:
after set-up it repeats full passes over the workload's fixed input list
until ``--seconds`` have gone, timing every op, and checks every op's
output outside the timed region.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics from the traced ones, writing the spans to
``.perfbench/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in its own process, one after the
other.  ``--record`` rewrites ``perfbench/reference.json`` from one pass
of every workload on the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUPS = 9  # set-ups per run; setup_s is their median
MIN_SAMPLES = 100  # pooled op latencies, so that ten lie beyond the p90
NAMES = ("realize-map", "straighten-euclid", "equivalence", "catalogue")
UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_TIMES = (
    "realization.plan",
    "realization.realize",
    "incidence.parse",
    "incidence.validate",
    "incidence.isomorphism",
    "wiring.diagram.build",
    "wiring.diagram.sweep",
    "wiring.faces.trace",
    "surface.scheme",
    "surface.summary",
    "surface.fingerprint",
    "wiring.mutations.sites",
    "wiring.mutations.apply",
    "wiring.euclid.sweep",
    "wiring.straighten.straighten",
    "cli.payload",
)
LAYER_COUNTS = (
    "realization.unwanted_crossings",
    "incidence.isomorphism_checks",
    "incidence.classes",
    "wiring.diagram.events",
    "wiring.faces.faces",
    "wiring.faces.digons",
    "surface.fingerprint_len",
    "wiring.mutations.steps",
    "wiring.mutations.triangle_sites",
    "wiring.mutations.digon_sites",
    "wiring.straighten.outer_len",
    "wiring.straighten.coord_bits_max",
)


def set_up(name: str, seed: int):
    """Import the library and the workloads afresh and generate the inputs;
    the time returned is scaled to the reference host speed."""
    from perfbench.hostspeed import REFERENCE_S, probe

    for module in [m for m in sys.modules if m.split(".")[0] == "quasiline" or m == "perfbench.workloads"]:
        del sys.modules[module]
    before = probe()
    start = perf_counter()
    workloads = importlib.import_module("perfbench.workloads")
    workload = workloads.WORKLOADS[name]
    prepared = workload.prepare(seed)
    elapsed = perf_counter() - start
    return elapsed * 2 * REFERENCE_S / (before + probe()), workload, prepared


class Pass:
    """Latencies, output digests, failures and counts of one full pass.

    ``latencies`` are wall times; ``scaled`` are the same times scaled to
    the reference host speed (see ``hostspeed``), and all metrics derive
    from them."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.digests: list[str] = []
        self.failed: set[int] = set()
        self.counts: dict[str, int] = {}
        self.layers: dict[str, float] = {}

    @property
    def ops_per_s(self) -> float:
        return len(self.scaled) / sum(self.scaled)

    @property
    def wall_ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_pass(workload, prepared, spans, expected: list[str] | None) -> Pass:
    """One pass over the inputs.  An op fails when it raises, breaks an
    invariant or its output digest differs from ``expected``; a failure
    is counted and the pass goes on."""
    from perfbench.hostspeed import Probes

    result = Pass(traced=hasattr(spans, "records"))
    first = len(getattr(spans, "records", ()))
    probes = Probes()
    state = workload.begin_pass(prepared)
    for index, item in enumerate(workload.items(prepared)):
        probes.before_op()
        spans.op = index
        start = perf_counter()
        try:
            with spans.span("op"):
                out = workload.op(item, state, spans)
        except Exception:  # a failed op is counted, never fatal
            result.latencies.append(perf_counter() - start)
            result.digests.append("")
            result.failed.add(index)
            print(f"op {index} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        result.latencies.append(perf_counter() - start)
        try:
            text, problems, counts = workload.check(item, out, state)
        except Exception:
            text, problems, counts = "", [traceback.format_exc()], {}
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        result.digests.append(digest)
        if expected is not None and index < len(expected) and expected[index] != digest:
            problems = problems + [f"output digest {digest} != reference {expected[index]}"]
        if problems:
            result.failed.add(index)
            print(f"op {index} ({item[0]}) failed: {'; '.join(problems)}", file=sys.stderr)
        for key, value in counts.items():
            if key.endswith("_max"):
                result.counts[key] = max(result.counts.get(key, 0), value)
            else:
                result.counts[key] = result.counts.get(key, 0) + value
    if expected is not None and len(expected) != len(result.digests):
        print(f"pass has {len(result.digests)} ops, reference has {len(expected)}", file=sys.stderr)
        result.failed.update(range(len(result.digests)))
    result.counts.update(workload.pass_counts(state))
    factors = probes.factors()
    result.scaled = [t * f for t, f in zip(result.latencies, factors)]
    if result.traced:
        result.layers = spans.self_times(first, factors)
    return result


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[Pass], setups: list[float]) -> dict[str, float]:
    pooled = [t for p in passes for t in p.scaled]
    return {
        "ops_per_s": statistics.median(p.ops_per_s for p in passes),
        "op_p50_ms": 1e3 * statistics.median(pooled),
        "op_p90_ms": 1e3 * nearest_rank(pooled, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    counts = traced[-1].counts
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYER_TIMES:
        metrics[f"{layer}_ms"] = (1e3 * statistics.median(p.layers.get(layer, 0.0) for p in traced), "ms")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    checks = counts.get("incidence.isomorphism_checks", 0)
    scanned = counts.get("wiring.mutations.triangles_scanned", 0)
    metrics["incidence.isomorphism_hit_ratio"] = (
        counts.get("incidence.isomorphism_matches", 0) / checks if checks else 0.0, "ratio")
    metrics["wiring.mutations.triangle_hit_ratio"] = (
        counts.get("wiring.mutations.triangle_sites", 0) / scanned if scanned else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.ops_per_s for p in traced) / statistics.median(p.ops_per_s for p in untraced),
        "ratio",
    )
    return metrics


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
    }


def load_reference(name: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(name)


def measure(workload, prepared, seconds: float, spans, expected: list[str] | None) -> list[Pass]:
    """Full passes until ``seconds`` are spent and the pooled latencies
    reach ``MIN_SAMPLES``.  With ``spans`` every second pass is traced,
    and there are at least two passes.  Without a reference, every pass
    must reproduce the digests of the first."""
    from perfbench.spans import NoSpans

    quiet = NoSpans()
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        traced = spans is not None and len(passes) % 2 == 1
        began = perf_counter()
        passes.append(run_pass(workload, prepared, spans if traced else quiet, expected))
        if expected is None:
            expected = passes[0].digests
        took = perf_counter() - began
        samples = sum(len(p.latencies) for p in passes)
        enough = samples >= MIN_SAMPLES and len(passes) >= (1 if spans is None else 2)
        if enough and perf_counter() - start + took > seconds:
            return passes


def report(name: str, seed: int, passes: list[Pass], setups: list[float], traced: bool) -> dict:
    """Print the run's environment, digest, error rate and metrics; return
    the result object."""
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {name} seed {seed} passes {len(passes)} ops_per_pass {len(passes[0].latencies)} "
          f"samples {attempted}")
    wall = [t for p in passes for t in p.latencies]
    print(f"wall ops_per_s {statistics.median(p.wall_ops_per_s for p in passes):.6g} "
          f"op_p50_ms {1e3 * statistics.median(wall):.6g} op_p90_ms {1e3 * nearest_rank(wall, 0.9):.6g} "
          f"(scaled / wall time {sum(t for p in passes for t in p.scaled) / sum(wall):.4g})")
    print("pass_ops_per_s " + " ".join(f"{p.ops_per_s:.4g}{'t' if p.traced else ''}" for p in passes))
    print(f"digest {name} seed {seed} {hashlib.sha256(''.join(passes[0].digests).encode()).hexdigest()}")
    print(f"error_rate {failed / attempted} ({failed} failed of {attempted} attempted)")
    if traced:
        metrics = per_layer(passes)
    else:
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(passes, setups).items()}
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUPS):
        elapsed, workload, prepared = set_up(name, seed)
        setups.append(elapsed)
    from perfbench.spans import Spans

    spans = Spans() if trace else None
    passes = measure(workload, prepared, seconds, spans, load_reference(name, seed))
    result = report(name, seed, passes, setups, trace)
    if spans is not None:
        spans.write(ROOT / ".perfbench" / f"spans-{name}-seed{seed}.jsonl")
    return result


def run_all(args) -> dict:
    """Each workload in its own process, so that peak RSS stays its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {child.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"][name] = result["metrics"]
    return total


def record() -> None:
    """Rewrite the reference digests from one pass on the default seed."""
    from perfbench.spans import NoSpans

    references = {}
    for name in NAMES:
        _, workload, prepared = set_up(name, DEFAULT_SEED)
        result = run_pass(workload, prepared, NoSpans(), None)
        if result.failed:
            raise SystemExit(f"{name}: {len(result.failed)} ops failed; reference not written")
        references[name] = result.digests
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": references}, indent=0) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite perfbench/reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "quasiline" / "__init__.py").is_file():
        print(f"no library source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import quasiline

    if Path(quasiline.__file__).resolve().parent != SRC / "quasiline":
        print(f"imported quasiline from {quasiline.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    result = run_all(args) if args.workload == "all" else run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
