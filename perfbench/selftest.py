"""Fast self-test of the benchmark itself (about ten seconds on two cores).

    python3 perfbench/selftest.py

1. Runs a tiny variant of every workload, untraced and traced, and requires
   a correct result with every metric that BENCHMARK.json names.
2. Feeds doctored outputs to the correctness gate and requires each to be
   caught: a violation above 4*Delta+3, an unassigned client, a cost above the
   LP optimum, a radius above G*, a failed cell, a cluster below L, outputs
   that differ between reruns, and a per-layer counter left at zero.
3. Runs the benchmark in a directory without the program and requires a
   nonzero exit and no result line.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import child
import run
from gate import check_fair_report, check_lb_result
from workloads import DELTA_OVERLAP, WORKLOADS

TINY = {"kmeans-lp": (200, None), "kcenter-radius": (120, None),
        "kmedian-swap": (120, None), "lb-match": (100, 10)}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_workloads() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS)
           and all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"]),
           "BENCHMARK.json lists the workloads of workloads.py")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        expect({m["name"]: m["unit"] for m in spec[key]} == units,
               f"BENCHMARK.json {key} metrics match run.py")
    for name, (n, L) in TINY.items():
        w = WORKLOADS[name].scaled(n, L)
        for traced in (False, True):
            res = run.run_workload(w, seed=3, seconds=0, traced=traced, datasets=1)
            units = run.PER_LAYER if traced else run.END_TO_END
            expect(res["correct"] and res["failed"] == 0 and set(res["metrics"]) == set(units),
                   f"tiny {name} trace={int(traced)}: correct, every metric present "
                   f"{res['notes'][:3]}")


def _fair_report(workload, work: Path) -> tuple[dict, dict]:
    """Run a tiny fair workload in this process; its report and group sizes."""
    from faircluster import config, datasets, experiment
    data = datasets.write_synthetic_csv(work / f"{workload.name}.csv", workload.n, 5)
    cfg = config.config_from_mapping(
        child.config_mapping(workload, data, 5, work / workload.name))
    report = json.loads(experiment.run_experiment(cfg).report_path.read_text())
    return report, child.read_data(data)[1]


def doctored_outputs(work: Path) -> None:
    sys.path.insert(0, str(run.SRC))
    for name, p in (("kmeans-lp", 2.0), ("kcenter-radius", math.inf)):
        w = WORKLOADS[name].scaled(200)
        report, sizes = _fair_report(w, work)

        def breaches(doctor):
            bad = copy.deepcopy(report)
            doctor(bad["cells"][0])
            return check_fair_report(bad, n=w.n, p=p, delta_overlap=DELTA_OVERLAP,
                                     group_sizes=sizes)

        expect(breaches(lambda c: None) == [], f"{name}: the real outputs pass the gate")

        def skew(cell):
            f = max(cell["cluster_sizes"], key=cell["cluster_sizes"].get)
            counts = cell["group_counts"][f]
            counts[0], counts[1] = counts[0] + counts[1], 0
        expect(any("exceeds 4*Delta+3" in b for b in breaches(skew)),
               f"{name}: a violation above 4*Delta+3 is caught")

        def unassign(cell):
            f = max(cell["cluster_sizes"], key=cell["cluster_sizes"].get)
            cell["cluster_sizes"][f] -= 1
        expect(any("not n=" in b for b in breaches(unassign)),
               f"{name}: an unassigned client is caught")
        failed = breaches(lambda c: c.update(status="failed: x"))
        expect(any("status" in b for b in failed), f"{name}: a failed cell is caught")
        misreported = breaches(lambda c: c.update(lambda_max=0.5 + c["lambda_max"]))
        expect(any("reported lambda" in b for b in misreported),
               f"{name}: a misreported violation is caught")
        if math.isinf(p):
            wide = breaches(lambda c: c.update(fair_cost=1.01 * c["radius"]))
            expect(any("exceeds G*" in b for b in wide), f"{name}: a radius above G* is caught")
        else:
            dear = breaches(lambda c: c.update(fair_cost=1.01 * c["fair_cost"]))
            expect(any("exceeds LP optimum" in b for b in dear),
                   f"{name}: a cost above the LP optimum is caught")

    points = [(float(i % 10), float(i // 10)) for i in range(40)]
    good = {"phi": [0] * 20 + [39] * 20, "opened": [0, 39]}
    good["cost"] = math.fsum(math.dist(points[v], points[f]) ** 2
                             for v, f in enumerate(good["phi"])) ** 0.5
    expect(check_lb_result(good, points=points, L=20, p=2.0) == [],
           "lb: a valid assignment passes the gate")
    expect(any("below L" in b for b in check_lb_result(good, points=points, L=21, p=2.0)),
           "lb: a cluster below L is caught")
    stray = dict(good, phi=[-1] + good["phi"][1:])
    expect(any("not assigned" in b for b in check_lb_result(stray, points=points, L=5, p=2.0)),
           "lb: an unassigned client is caught")

    w = WORKLOADS["kmeans-lp"]
    rep = {"attempted": w.cells, "failed": 0, "breaches": [], "digest": "a",
           "zero_counters": [], "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 1.0,
           "cost_ratios": [1.0]}
    res = run._summarize(w, [(False, [rep]), (False, [dict(rep, digest="b")])], [], False)
    expect(not res["correct"] and res["failed"] == w.cells,
           "outputs that differ between reruns are caught")
    layers = dict.fromkeys(run.PER_LAYER, 1.0)
    traced = dict(rep, layers=layers, solve_ms=[1.0], lambda_max=0.0,
                  zero_counters=["lp.highs.calls"])
    res = run._summarize(w, [(False, [rep]), (True, [traced])], [], True)
    expect(not res["correct"], "a per-layer counter left at zero is caught")


def bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "lb-match",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program the benchmark exits nonzero and prints no result")


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tiny_workloads()
        doctored_outputs(work)
        bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
