"""Benchmark of the faircluster pipeline, one workload per invocation.

    python3 perfbench/run.py --workload kmeans-lp --seed 7 --seconds 20 --trace 0

Run from anywhere; the program measured is the one in ``src/`` next to this
directory. ``DATASETS`` data sets are generated from ``--seed`` (which also
goes to ``config.seed``). Then, pass after pass, a fresh child process
(``child.py``) runs the workload once on each data set, until ``--seconds``
have passed and at least ``MIN_PASSES`` passes are done. A fresh process per repetition
keeps distance caches and peak RSS from carrying over.

``--trace 0`` prints the end-to-end metrics: for each data set the median over
passes, then the mean over data sets (``setup_s``: the median over all
repetitions). ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics of the traced repetitions
(medians), plus the tracing overhead.

Every repetition passes the correctness gate (``gate.py``) and must write
byte-identical outputs. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
from spans import summarize_solves  # noqa: E402
from workloads import DOMINANT_CANDIDATES, WORKLOADS  # noqa: E402

DATASETS = 8        # data sets per run; their mean damps how much one seed's data matters
MIN_PASSES = 2      # passes per run: a median per data set, and reruns to compare outputs
DEADLINE_S = 170.0  # a run ends, with its children, within this many seconds
THREADS = "1"       # BLAS/OpenMP threads per child; at most the core count

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cost_ratio_mean": "ratio"}

PER_LAYER = {
    "ingest.s": "s", "ingest.calls": "count", "ingest.rows": "count",
    "instance.dist.s": "s", "instance.dist.calls": "count", "instance.dist.bytes": "B",
    "instance.report.s": "s",
    "vanilla.s": "s", "vanilla.calls": "count", "vanilla.lloyd_iters": "count",
    "fair.clustering.self_s": "s",
    "fair.assign.s": "s", "fair.assign.self_s": "s",
    "fair.build.s": "s", "fair.build.calls": "count",
    "fair.radius.s": "s", "fair.radius.self_s": "s", "fair.radius.probes": "count",
    "fair.round.s": "s", "fair.round.self_s": "s", "fair.round.iters": "count",
    "fair.round.lambda_max": "clients",
    "lp.solve.s": "s", "lp.solve.calls": "count", "lp.solve.p50_ms": "ms",
    "lp.solve.ptail_ms": "ms", "lp.solve.ptail_pct": "%", "lp.solve.samples": "count",
    "lp.assemble.s": "s", "lp.highs.s": "s", "lp.highs.calls": "count",
    "lp.highs.nit": "count", "lp.fallbacks": "count", "lp.vars": "count", "lp.rows": "count",
    "lp.feas.calls": "count", "lp.feas.feasible": "count",
    "lb.s": "s", "lb.self_s": "s", "lb.subsets": "count",
    "lb.match.s": "s", "lb.match.calls": "count", "lb.match.feasible": "count",
    "experiment.run.self_s": "s", "experiment.cells": "count",
    "experiment.cell.p50_s": "s", "experiment.write.s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (for instance, no program to measure)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def _run_child(workload, seed: int, data: Path, out: Path, traced: bool,
               deadline: float) -> dict:
    result = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--n", str(workload.n), "--data", str(data),
           "--out", str(out), "--result", str(result), "--trace", str(int(traced))]
    if workload.L is not None:
        cmd += ["--L", str(workload.L)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{out.name} exceeded the run deadline"}
    if proc.returncode != 0:
        return {"error": f"{out.name} exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result.read_text())


def run_workload(workload, seed: int, seconds: float, traced: bool,
                 datasets: int = DATASETS) -> dict:
    """Run one workload and return the result object printed on the last line.

    Pass after pass runs the workload once on each of ``datasets`` data sets
    made from ``seed``, until about ``seconds`` have passed and there are at
    least ``MIN_PASSES`` passes, so every output is compared with reruns. With
    ``traced`` the passes alternate between untraced and traced.
    """
    if not (SRC / "faircluster" / "__init__.py").is_file():
        raise BenchmarkError(f"no faircluster sources under {SRC}")
    if seed < 0:
        raise BenchmarkError("the seed must be a nonnegative integer")
    sys.path.insert(0, str(SRC))
    from faircluster.datasets import write_synthetic_csv

    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data = [write_synthetic_csv(work / f"data{i}.csv", workload.n, seed * datasets + i)
                for i in range(datasets)]
        start = time.monotonic()
        deadline = start + DEADLINE_S
        passes: list[tuple[bool, list[dict]]] = []
        errors: list[str] = []
        while not errors:
            want_trace = traced and len(passes) % 2 == 1
            reps = []
            for i, path in enumerate(data):
                rep = _run_child(workload, seed, path, work / f"p{len(passes)}d{i}",
                                 want_trace, deadline)
                if "error" in rep:
                    errors.append(rep["error"])
                    break
                reps.append(rep)
            passes.append((want_trace, reps))
            elapsed = time.monotonic() - start
            # stop at the pass boundary nearest to ``seconds``
            if len(passes) >= MIN_PASSES and elapsed * (1 + 0.5 / len(passes)) >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _summarize(workload, passes, errors, traced)


def _per_dataset(passes, key) -> float:
    """Mean over data sets of the median over passes of ``key``."""
    by_data: dict[int, list[float]] = {}
    for _, reps in passes:
        for i, r in enumerate(reps):
            by_data.setdefault(i, []).append(r[key])
    return statistics.fmean(statistics.median(v) for v in by_data.values())


def _summarize(workload, passes, errors, traced) -> dict:
    notes = list(errors)
    every = [r for _, reps in passes for r in reps]
    attempted = sum(r["attempted"] for r in every) + (workload.cells if errors else 0)
    failed = sum(r["failed"] for r in every) + (workload.cells if errors else 0)
    for r in every:
        notes += r["breaches"]
    for i in range(len(passes[0][1])):
        digests = [reps[i]["digest"] for _, reps in passes if i < len(reps)]
        if len(set(digests)) > 1:
            notes.append(f"data set {i}: outputs differ between reruns {digests}")
            failed += workload.cells * sum(d != digests[0] for d in digests)
    plain = [p for p in passes if not p[0] and len(p[1]) == len(passes[0][1])]
    tracing = [p for p in passes if p[0] and len(p[1]) == len(passes[0][1])]
    for _, reps in tracing:
        for r in reps:
            notes += [f"per-layer counter {c} is zero" for c in r["zero_counters"]]

    metrics: dict[str, float] = {}
    units = PER_LAYER if traced else END_TO_END
    ratios = [x for _, reps in plain[:1] for r in reps for x in r["cost_ratios"]]
    if not errors and not traced and ratios:
        metrics = {k: _per_dataset(plain, k) for k in ("wall_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(r["setup_s"] for _, reps in plain for r in reps)
        metrics["cost_ratio_mean"] = statistics.fmean(ratios)
    elif not errors:
        layers = [r["layers"] for _, reps in tracing for r in reps]
        metrics = {k: statistics.median(x[k] for x in layers) for k in layers[0]}
        metrics.update(summarize_solves(
            [ms for _, reps in tracing for r in reps for ms in r["solve_ms"]]))
        metrics["fair.round.lambda_max"] = max(
            r["lambda_max"] or 0.0 for _, reps in tracing for r in reps)
        metrics["trace.wall_s"] = _per_dataset(tracing, "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _per_dataset(plain, "wall_s")
    if metrics and set(metrics) != set(units):
        raise AssertionError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": not notes and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed if metrics else max(1, failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "notes": notes,
        "reps": len(every),
        "digests": [r["digest"] for r in passes[0][1]],
    }


def _report(workload, seed: int, result: dict) -> None:
    print(f"workload {workload.name}, seed {seed}: {result['reps']} repetitions")
    for i, digest in enumerate(result["digests"]):
        print(f"  data set {i}: outputs sha256 {digest}")
    for note in result["notes"]:
        print(f"CHECK FAILED: {note}")
    for name, m in result["metrics"].items():
        print(f"  {name:26s} {m['value']:.6g} {m['unit']}")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if "lp.highs.s" in values:
        top = max(DOMINANT_CANDIDATES, key=values.get)
        print(f"dominant layer: {top} (expected {workload.dominant})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    _report(workload, args.seed, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
