"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Times ``import faircluster`` plus ``ingest`` (set-up) and the pipeline call
(wall), runs the correctness gate on the outputs, and writes one JSON object
to ``--result``. With ``--trace 1`` it also records per-layer spans.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import gate
import spans
from workloads import ATTRIBUTES, COORDINATES, DELTA_OVERLAP, WORKLOADS


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--L", type=int, default=None)
    ap.add_argument("--data", required=True, help="CSV written by write_synthetic_csv")
    ap.add_argument("--out", required=True, help="directory for the program's outputs")
    ap.add_argument("--result", required=True, help="JSON file this repetition writes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def read_data(path: Path):
    """Points and group sizes (``column=value`` -> count) of the generated CSV."""
    points, groups = [], {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            points.append(tuple(float(row[c]) for c in COORDINATES))
            for a in ATTRIBUTES:
                key = f"{a}={row[a]}"
                groups[key] = groups.get(key, 0) + 1
    return points, groups


def config_mapping(workload, data, seed: int, out) -> dict:
    """The experiment manifest of ``workload``, as ``faircluster run`` would load it."""
    return {
        "dataset_path": str(data),
        "coordinate_columns": list(COORDINATES),
        "sensitive_attributes": list(ATTRIBUTES),
        "k_values": list(workload.k_values),
        "p": "inf" if math.isinf(workload.p) else workload.p,
        "delta_values": list(workload.delta_values) or ["vacuous"],
        "seed": seed,
        "output_dir": str(out),
        "jobs": 1,
    }


def main(argv=None) -> int:
    args = _args(argv)
    t0 = time.perf_counter()
    import faircluster
    from faircluster import config as fc_config
    from faircluster import experiment, ingest, lower_bounded
    t_import = time.perf_counter() - t0

    # the program under test must be the checkout's, never an installed copy
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(faircluster.__file__).resolve().is_relative_to(src):
        print(f"faircluster imported from {faircluster.__file__}, not {src}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload].scaled(args.n, args.L)
    cfg = fc_config.config_from_mapping(config_mapping(w, args.data, args.seed, args.out))
    recorder = spans.Recorder() if args.trace else None
    with spans.installed(recorder) if recorder else contextlib.nullcontext():
        t1 = time.perf_counter()
        ing = ingest.ingest(cfg)
        t2 = time.perf_counter()
        if w.is_lb:
            lb = lower_bounded.lb_clustering(ing.instance, L=w.L, seed=args.seed)
        else:
            summary = experiment.run_experiment(cfg, ingest_result=ing)
        t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    points, group_sizes = read_data(Path(args.data))
    res = {"setup_s": t_import + (t2 - t1), "wall_s": t3 - t2, "peak_rss_mb": peak_rss_mb,
           "attempted": w.cells}
    if w.is_lb:
        sol = lb.solution
        result = {"phi": [int(f) for f in sol.phi], "opened": [int(f) for f in sol.opened],
                  "cost": float(sol.cost_p)}
        breaches = gate.check_lb_result(result, points=points, L=w.L, p=w.p)
        res.update(failed=int(bool(breaches)), cost_ratios=[sol.cost_p / lb.vanilla.cost_p],
                   lambda_max=None, cell_wall_s=[t3 - t2],
                   digest=hashlib.sha256(json.dumps(result).encode()).hexdigest())
    else:
        report = json.loads(summary.report_path.read_text())
        breaches = gate.check_fair_report(report, n=len(points), p=w.p,
                                          delta_overlap=DELTA_OVERLAP, group_sizes=group_sizes)
        cells = report["cells"]
        bad = {b.split(":")[0] for b in breaches}
        ok = [c for c in cells if c["status"] == "ok"]
        res.update(failed=len(bad), cell_wall_s=[c["wall_ms"] / 1e3 for c in cells],
                   cost_ratios=[c["fair_cost"] / c["vanilla_cost"] for c in ok],
                   lambda_max=max((c["lambda_max"] for c in ok), default=None),
                   digest=hashlib.sha256(summary.cells_path.read_bytes()).hexdigest())
    res["breaches"] = breaches

    if recorder:
        layers = spans.layer_metrics(recorder)
        cell_s = res["cell_wall_s"]
        layers["experiment.cells"] = 0 if w.is_lb else len(cell_s)
        layers["experiment.cell.p50_s"] = 0.0 if w.is_lb else statistics.median(cell_s)
        run_s = sum(e - s for name, s, e, _ in recorder.spans if name == "experiment.run")
        layers["experiment.write.s"] = 0.0 if w.is_lb else run_s - sum(cell_s)
        res["layers"] = layers
        res["solve_ms"] = spans.solve_samples_ms(recorder)
        res["zero_counters"] = [c for c in w.counters if not layers.get(c)]

    Path(args.result).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
