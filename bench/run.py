#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print its metrics.

    python3 bench/run.py --workload repl-polytree --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --trace 1      # every workload, one process each

With ``--trace 0`` a run sets up its workload several times (reporting the
median set-up), then cycles through the operation pool in whole rounds for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
sets up once, runs half the time untraced and half with every qcnet layer
wrapped by ``spans.Tracer``, then runs the scaling probes, reports the
per-layer metrics and writes the spans to ``.bench_out/``.  Times are at
reference speed (see ``refclock``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation fails
when it raises, or when its output digest differs from the one it gave
earlier in the run.  Outputs of the anchor seed must also match
``golden.json``, or ``correct`` is false.  A FAIL verdict of the oracle
does not fail the operation: it lowers ``ok_share`` (1 - error rate),
which is how the oracle's known false FAIL on deep chains shows.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock
from spans import LAYER_SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
NAMES = ("repl-polytree", "verify-trees", "cli-oneshot")
SETUP_REPEATS = 7
MIN_SAMPLES = 100  # so that p90 has at least 10 samples beyond it
ANCHOR_SEED = 0



def import_workloads():
    """Import qcnet from this checkout's ``src`` (never an installed copy).

    Returns the workloads module and the import time at reference speed."""
    src = ROOT / "src"
    if not (src / "qcnet" / "__init__.py").is_file():
        sys.exit(f"error: {src} holds no qcnet package; run from a full checkout")
    sys.path.insert(0, str(src))
    workloads, wall, scale = refclock.timed(lambda: importlib.import_module("workloads"))
    qcnet = sys.modules["qcnet"]
    if Path(qcnet.__file__).resolve().parent != src / "qcnet":
        sys.exit(f"error: imported qcnet from {qcnet.__file__}, not from {src}")
    return workloads, wall * scale


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.latencies: list[float] = []  # seconds at reference speed
        self.by_op: dict[int, list[float]] = {}
        self.wall: list[float] = []
        self.scales: list[float] = []
        self.failed = 0
        self.fail_verdicts = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def ops_per_s(self) -> float:
        """Operations per second of operation time, from each pool
        operation's median latency (the pool runs in whole rounds)."""
        medians = [statistics.median(v) for v in self.by_op.values()]
        return len(medians) / sum(medians)


def run_ops(ops, seconds: float, expected: dict[int, str], tracer=None) -> Tally:
    """Closed loop, one caller, whole rounds of the pool until ``seconds`` of
    operation time have passed and at least MIN_SAMPLES operations ran.

    ``expected`` maps pool index to output digest; the first output of an
    operation sets it, and every later output must match.
    """
    tally = Tally()
    busy = 0.0
    op_id = 0
    while busy < seconds or tally.attempted < MIN_SAMPLES:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
            op_id += 1
            tally.attempted += 1
            start = time.perf_counter()
            try:
                result, wall, scale = refclock.timed(op.run)
            except Exception as exc:  # counted, never aborts the run
                busy += time.perf_counter() - start
                tally.fail(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            busy += wall
            tally.wall.append(wall)
            tally.scales.append(scale)
            tally.latencies.append(wall * scale)
            tally.by_op.setdefault(i, []).append(wall * scale)
            try:
                out_digest, verdict_ok = op.check(result)
            except Exception as exc:
                tally.fail(f"{op.label}: checking output: {type(exc).__name__}: {exc}")
                continue
            if expected.setdefault(i, out_digest) != out_digest:
                tally.fail(f"{op.label}: output differs from its earlier output")
            elif not verdict_ok:
                tally.fail_verdicts += 1
    if not tally.latencies:
        sys.exit("error: no operation completed, so there is nothing to measure; first failures: "
                 + "; ".join(tally.errors))
    return tally


def anchor_mismatches(setup, name: str) -> list[str]:
    """Labels of anchor-seed operations whose output differs from golden.json."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(name, {})
    if not golden:
        return []
    got = record_anchor(setup, name)
    return sorted(label for label, d in golden.items() if got.get(label) != d)


def record_anchor(setup, name: str) -> dict[str, str]:
    """Output digest of each golden operation of the anchor seed; an
    exception is recorded in place of the digest."""
    workdir = OUT / f"{name}-anchor"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    for op in setup(ANCHOR_SEED, workdir):
        if op.golden:
            try:
                out[op.label] = op.check(op.run())[0]
            except Exception as exc:
                out[op.label] = f"raised {type(exc).__name__}: {exc}"
    return out


def end_to_end(tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    lat = tally.latencies
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "ok_share": ((tally.attempted - tally.failed - tally.fail_verdicts) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced: Tally, untraced: Tally, probes: dict[str, float]) -> dict[str, tuple[float, str]]:
    n = traced.attempted
    scale = statistics.median(traced.scales)
    totals = tracer.totals()
    out: dict[str, tuple[float, str]] = {}
    for span in LAYER_SPANS:
        calls, secs = totals.get(span, (0, 0.0))
        out[f"{span}.calls"] = (calls / n, "count")
        out[f"{span}.self_ms"] = (secs * scale * 1e3 / n, "ms")
    done, resampled = tracer.completed, tracer.resampled
    out["netfile.bytes"] = (tracer.parsed_bytes / n, "bytes")
    out["oracle.trials_completed"] = (done / n, "count")
    out["oracle.resampled"] = (resampled / n, "count")
    out["oracle.useful_ratio"] = (done / (done + resampled) if done + resampled else 0.0, "ratio")
    out["trace.overhead_ratio"] = (untraced.ops_per_s() / traced.ops_per_s(), "ratio")
    for key, value in probes.items():
        out[key] = (value, "us" if key.startswith("network.") else "ms")
    return out


def run_one(args) -> int:
    workloads, import_s = import_workloads()
    setup = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    setup_times = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        ops, wall, scale = refclock.timed(lambda: setup(args.seed, workdir))
        setup_times.append(wall * scale)
    setup_s = import_s + statistics.median(setup_times)
    print(f"# import_s={import_s:.4g} setup_times=" + ",".join(f"{t:.4g}" for t in setup_times))

    expected: dict[int, str] = {}
    if not args.trace:
        tallies = [run_ops(ops, args.seconds, expected)]
        metrics = end_to_end(tallies[0], setup_s)
    else:
        untraced = run_ops(ops, args.seconds / 2, expected)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_ops(ops, args.seconds / 2, expected, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced, workloads.probes(args.seed))
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.tsv.gz"
        tracer.write(spans_path)
        print(f"# spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
        tallies = [untraced, traced]

    mismatches = anchor_mismatches(setup, args.workload)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    fail_verdicts = sum(t.fail_verdicts for t in tallies)
    for t in tallies:
        for err in t.errors:
            print(f"# failed: {err}", file=sys.stderr)
    for label in mismatches:
        print(f"# golden mismatch: {label}", file=sys.stderr)

    wall = [w for t in tallies for w in t.wall]
    scales = [s for t in tallies for s in t.scales]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} samples={attempted} "
          f"failed={failed} fail_verdicts={fail_verdicts} error_rate={(failed + fail_verdicts) / attempted:.6g} "
          f"wall_p50_ms={statistics.median(wall) * 1e3:.4g} median_scale={statistics.median(scales):.4g}")
    for key, (value, unit) in metrics.items():
        print(f"# {key:<36} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, help="omit to run every workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the anchor seed's outputs, then exit")
    args = parser.parse_args()
    if args.record_golden:
        workloads, _ = import_workloads()
        golden = {name: record_anchor(setup, name) for name, setup in workloads.WORKLOADS.items()}
        GOLDEN.write_text(json.dumps({k: v for k, v in golden.items() if v}, indent=1, sort_keys=True) + "\n")
        return 0
    if args.seed is None:
        parser.error("--seed is required")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
