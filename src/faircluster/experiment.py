"""Experiment orchestration: (k, delta) grids, reports, and plot-ready CSVs.

Per k we run the vanilla solver once; per (k, delta) cell the fair stage on
that solution, and optionally the almost-fair LP and the brute-force oracle.
Outputs:

  report.json  - full nested report (config echo, per-cell metrics, timings)
  cells.csv    - one flat row per grid cell, no timings, byte-reproducible
  clusters.csv - long-format per-cluster group counts and balance

Cell failures are recorded with a status and the run continues; partial
failure is reflected in the process exit code, not an exception.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fair
from .config import ConfigError, ExperimentConfig
from .fair import fair_clustering
from .ingest import IngestResult, ingest
from .instance import FairnessProfile, delta_to_profile
from .lower_bounded import lb_clustering
from .oracle import GuardExceededError, almost_fair_lp, brute_force_fair
from .vanilla import SolverId, default_solver_for

log = logging.getLogger("faircluster")

_CSV_FIELDS = [
    "k", "delta", "solver_id", "seed", "n", "vanilla_cost", "fair_cost",
    "cost_of_fairness", "lambda_max", "lp_objective", "aflp_cost",
    "opt_vnll", "opt_fair", "rounding_iterations", "status",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if not math.isfinite(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, np.generic):
        return x.item()
    return x


def _write_json(outdir, name: str, payload: dict) -> Path:
    """Write ``payload`` as indented, key-sorted JSON to ``outdir/name``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _resolve_solver(config: ExperimentConfig) -> SolverId:
    if config.solver_id is None:
        return default_solver_for(config.p)
    try:
        return SolverId(config.solver_id)
    except ValueError:
        names = sorted(s.value for s in SolverId)
        raise ValueError(f"unknown solver_id {config.solver_id!r}; choose from {names}")


def _profile_for(instance, delta) -> FairnessProfile:
    """The fairness profile of one grid value: ``"vacuous"`` or a delta knob."""
    if delta == "vacuous":
        return FairnessProfile.vacuous(instance.ell)
    return delta_to_profile(instance, float(delta))


def _solve_k(inst, solver: SolverId, seed: int):
    """The one vanilla solve shared by every delta cell of ``inst.k``:
    (the solution, or the exception that ended it; its time in ms)."""
    t0 = time.perf_counter()
    try:
        vanilla = fair.solve_vanilla(inst, solver, seed)
    except Exception as exc:  # noqa: BLE001 - fails that k's cells only
        vanilla = exc
    return vanilla, (time.perf_counter() - t0) * 1e3


def _run_cell(inst, solved, delta, config: ExperimentConfig, solver: SolverId,
              first_of_k: bool) -> dict:
    """One (k, delta) cell on the k's vanilla solution ``solved`` (from
    ``_solve_k``). The solve's time is charged to the k's first cell, so the
    cells' ``wall_ms`` still add up to the grid's run time."""
    vanilla, vanilla_ms = solved
    t0 = time.perf_counter()
    cell: dict = {"k": inst.k, "delta": delta, "solver_id": solver.value,
                  "seed": config.seed, "n": inst.n, "status": "ok", "warnings": []}
    try:
        if isinstance(vanilla, Exception):
            raise vanilla
        profile = _profile_for(inst, delta)
        run = fair_clustering(vanilla, profile)
        fair_cost = run.solution.cost_p
        report = run.report
        cell.update({
            "vanilla_cost": vanilla.cost_p,
            "fair_cost": fair_cost,
            "cost_of_fairness": report.cost_of_fairness,
            "lambda_max": report.lambda_max,
            "rounding_iterations": run.fair.rounding_iterations,
            "lp_objective": run.fair.initial_lp_objective,
            "radius": run.fair.guess,
            "radius_probes": run.fair.radius_probes,
            "radius_classes": run.fair.radius_classes,
            "split_clients": run.fair.split_clients,
            "per_cluster_balance": report.balance,
            "cluster_sizes": report.cluster_sizes,
            "group_counts": {f: list(c) for f, c in report.group_counts.items()},
            "largest_clusters": [f for f, _ in sorted(
                report.cluster_sizes.items(), key=lambda kv: (-kv[1], kv[0]))[:3]],
            "timings_ms": {"vanilla": vanilla_ms, **report.timings_ms},
        })
        if run.fair.initial_lp_objective is not None:
            floor = run.fair.initial_lp_objective ** (1.0 / inst.p)
            if fair_cost < floor - 1e-6 * max(1.0, floor):
                # rounding may legitimately undercut the fair LP once windows
                # replace the ratio rows; report it rather than fail
                cell["warnings"].append(
                    f"fair cost {fair_cost:.6g} below LP floor {floor:.6g}"
                )
        if config.run_aflp and not math.isinf(inst.p):
            cell["aflp_cost"] = almost_fair_lp(inst, profile, lam=report.lambda_max)
        if config.run_oracle:
            try:
                orc = brute_force_fair(inst, profile)
                cell["opt_vnll"] = orc.opt_vnll
                cell["opt_fair"] = orc.opt_fair
            except GuardExceededError as exc:
                cell["warnings"].append(f"oracle skipped: {exc}")
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        log.warning("cell (k=%s, delta=%s) failed: %s", inst.k, delta, exc)
        cell["status"] = f"failed: {exc}"
    cell["wall_ms"] = (time.perf_counter() - t0) * 1e3 + (vanilla_ms if first_of_k else 0.0)
    return cell


@dataclass(frozen=True)
class ExperimentSummary:
    report_path: Path
    cells_path: Path
    clusters_path: Path
    statuses: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return all(s == "ok" for s in self.statuses)


def run_experiment(config: ExperimentConfig, ingest_result: IngestResult | None = None) -> ExperimentSummary:
    """Run the full (k, delta) grid and write report.json / cells.csv / clusters.csv."""
    ing = ingest_result or ingest(config)
    instance = ing.instance
    solver = _resolve_solver(config)
    log.info("running %d cells on n=%d points (solver=%s)",
             len(config.k_values) * len(config.delta_values), instance.n, solver.value)

    # one n x m matrix for the whole grid: with_k hands it to every k
    instance.dist_cf  # noqa: B018 - computed here, before the per-k copies
    insts = [instance.with_k(k) for k in config.k_values]
    deltas = config.delta_values

    def solve(inst):
        return _solve_k(inst, solver, config.seed)

    def run_cell(ij):
        i, j = ij
        return _run_cell(insts[i], solved[i], deltas[j], config, solver, first_of_k=j == 0)

    pool = ThreadPoolExecutor(max_workers=config.jobs) if config.jobs > 1 else None
    with pool or contextlib.nullcontext():
        mapper = map if pool is None else pool.map
        solved = list(mapper(solve, insts))
        cells = list(mapper(run_cell, [(i, j) for i in range(len(insts))
                                       for j in range(len(deltas))]))

    report = {
        "config": _json_safe({
            "dataset_path": config.dataset_path,
            "coordinate_columns": list(config.coordinate_columns),
            "sensitive_attributes": [
                {"column": a.column, "groups": a.groups} for a in config.sensitive_attributes
            ],
            "k_values": list(config.k_values),
            "p": "inf" if math.isinf(config.p) else config.p,
            "delta_values": list(config.delta_values),
            "max_points": config.max_points,
            "seed": config.seed,
            "solver_id": solver.value,
            "standardize": config.standardize,
        }),
        "ingest": {
            "rows_total": ing.rows_total,
            "rows_dropped": ing.rows_dropped,
            "n": instance.n,
            "groups": list(ing.group_names),
            "delta_overlap": instance.delta,
            "violation_hard_bound": 4 * instance.delta + 3,
        },
        "cells": [_json_safe(c) for c in cells],
    }
    report_path = _write_json(config.output_dir, "report.json", report)
    outdir = Path(config.output_dir)

    cells_path = outdir / "cells.csv"
    with open(cells_path, "w") as fh:
        fh.write(",".join(_CSV_FIELDS) + "\n")
        for c in cells:
            fh.write(",".join(_fmt(c.get(f)) for f in _CSV_FIELDS) + "\n")

    clusters_path = outdir / "clusters.csv"
    with open(clusters_path, "w") as fh:
        fh.write("k,delta,facility,size,balance,top3," +
                 ",".join(f"count_{g}" for g in ing.group_names) + "\n")
        for c in cells:
            if c["status"] != "ok":
                continue
            top3 = set(c["largest_clusters"])
            for f in sorted(c["cluster_sizes"]):
                counts = c["group_counts"][f]
                bal = c["per_cluster_balance"].get(f)
                fh.write(",".join([
                    _fmt(c["k"]), _fmt(c["delta"]), _fmt(f),
                    _fmt(c["cluster_sizes"][f]), _fmt(bal), _fmt(int(f in top3)),
                ] + [_fmt(x) for x in counts]) + "\n")

    return ExperimentSummary(
        report_path=report_path, cells_path=cells_path, clusters_path=clusters_path,
        statuses=tuple(c["status"] for c in cells),
    )


def run_lb(config: ExperimentConfig) -> Path:
    """Lower-bounded clustering over the configured k grid with minimum
    cluster size ``config.L``; writes lb_report.json."""
    L = config.L
    if L is None:
        raise ConfigError("lower-bounded mode needs --L or an L field in the config")
    ing = ingest(config)
    solver = _resolve_solver(config)
    rows = []
    for k in config.k_values:
        inst = ing.instance.with_k(k)
        t0 = time.perf_counter()
        try:
            res = lb_clustering(inst, L=L, solver_id=solver, seed=config.seed)
            rows.append({
                "k": k, "L": L, "status": "ok",
                "cost": res.solution.cost_p,
                "vanilla_cost": res.vanilla.cost_p,
                "opened": list(res.solution.opened),
                "cluster_sizes": res.solution.cluster_sizes(),
                "subsets_evaluated": res.subsets_evaluated,
                "subsets_solved": res.subsets_solved,
                "wall_ms": (time.perf_counter() - t0) * 1e3,
            })
        except Exception as exc:  # noqa: BLE001
            rows.append({"k": k, "L": L, "status": f"failed: {exc}"})
    return _write_json(config.output_dir, "lb_report.json",
                       {"rows": [_json_safe(r) for r in rows]})


def run_oracle(config: ExperimentConfig) -> Path:
    """Brute-force optima per (k, delta); tiny instances only (guarded)."""
    ing = ingest(config)
    rows = []
    for k in config.k_values:
        inst = ing.instance.with_k(k)
        for d in config.delta_values:
            try:
                orc = brute_force_fair(inst, _profile_for(inst, d))
                rows.append({"k": k, "delta": d, "status": "ok",
                             "opt_vnll": orc.opt_vnll, "opt_fair": orc.opt_fair})
            except GuardExceededError as exc:
                rows.append({"k": k, "delta": d, "status": f"skipped: {exc}"})
    return _write_json(config.output_dir, "oracle_report.json",
                       {"rows": [_json_safe(r) for r in rows]})
