"""Correctness gate: the paper's guarantees, checked on the program's outputs.

Each check returns a list of breaches, one string per failed condition,
prefixed with the cell it concerns. The inputs are plain data (a parsed
``report.json``, or a dict describing a lower-bounded result) plus facts the
benchmark knows from the data it generated, so a doctored result can be fed
in by the self-test.
"""

from __future__ import annotations

import math

# relative slack for comparing a rounded cost with the LP optimum
COST_RTOL = 1e-6


def _profile(group_sizes: list[int], n: int, delta):
    """(alpha, beta) of ``delta_to_profile``, recomputed from the generated data."""
    if delta == "vacuous":
        return [1.0] * len(group_sizes), [0.0] * len(group_sizes)
    r = [g / n for g in group_sizes]
    d = float(delta)
    return [min(1.0, ri / (1.0 - d)) for ri in r], [ri * (1.0 - d) for ri in r]


def lambda_of(cluster_sizes, group_counts, alpha, beta) -> float:
    """Additive violation of per-cluster sizes and group counts against a profile."""
    lam = 0.0
    for f, size in cluster_sizes.items():
        if size == 0:
            continue
        for cnt, a, b in zip(group_counts[f], alpha, beta):
            lam = max(lam, cnt - a * size, b * size - cnt)
    return lam


def check_fair_report(report: dict, *, n: int, p: float, delta_overlap: int,
                      group_sizes: dict[str, int]) -> list[str]:
    """Breaches in every cell of a fair-clustering ``report.json``."""
    bound = 4 * delta_overlap + 3
    sizes = [group_sizes[g] for g in report["ingest"]["groups"]]
    breaches = []
    for cell in report["cells"]:
        where = f"cell k={cell['k']} delta={cell['delta']}"
        if cell["status"] != "ok":
            breaches.append(f"{where}: status {cell['status']!r}")
            continue
        clusters = {int(f): s for f, s in cell["cluster_sizes"].items()}
        counts = {int(f): c for f, c in cell["group_counts"].items()}
        if sum(clusters.values()) != n:
            breaches.append(f"{where}: cluster sizes sum to {sum(clusters.values())}, not n={n}")
        if any(sum(counts.get(f, ())) != s * delta_overlap for f, s in clusters.items()):
            breaches.append(f"{where}: group counts disagree with cluster sizes")
        alpha, beta = _profile(sizes, n, cell["delta"])
        lam = lambda_of(clusters, counts, alpha, beta)
        if lam > bound:
            breaches.append(f"{where}: violation {lam:.6g} exceeds 4*Delta+3 = {bound}")
        if abs(lam - cell["lambda_max"]) > 1e-6 * max(1.0, lam):
            breaches.append(
                f"{where}: reported lambda {cell['lambda_max']!r} but counts give {lam!r}")
        fair_cost = cell["fair_cost"]
        if math.isinf(p):
            if not fair_cost <= cell["radius"] + 1e-9:
                breaches.append(f"{where}: radius {fair_cost!r} exceeds G* {cell['radius']!r}")
        else:
            lp = cell["lp_objective"]
            if not fair_cost**p <= lp * (1.0 + COST_RTOL) + 1e-12:
                breaches.append(f"{where}: cost^p {fair_cost**p!r} exceeds LP optimum {lp!r}")
    return breaches


def check_lb_result(result: dict, *, points, L: int, p: float) -> list[str]:
    """Breaches of a lower-bounded result: ``phi`` (facility per client),
    ``opened`` and the reported ``cost``, checked against the input points."""
    phi, opened = result["phi"], set(result["opened"])
    n = len(points)
    where = f"lb L={L}"
    if len(phi) != n:
        return [f"{where}: {len(phi)} clients assigned, not n={n}"]
    stray = [v for v, f in enumerate(phi) if f not in opened]
    if stray:
        return [f"{where}: client {stray[0]} is not assigned to an opened center"]
    breaches = []
    sizes = {f: 0 for f in opened}
    for f in phi:
        sizes[f] += 1
    short = {f: s for f, s in sizes.items() if s < L}
    if short:
        breaches.append(f"{where}: clusters below L: {short}")
    d = [math.dist(points[v], points[f]) for v, f in enumerate(phi)]
    cost = max(d) if math.isinf(p) else math.fsum(x**p for x in d) ** (1.0 / p)
    if abs(cost - result["cost"]) > 1e-9 * max(1.0, cost):
        breaches.append(f"{where}: reported cost {result['cost']!r} but assignment costs {cost!r}")
    return breaches
