"""Shared test helpers: random instance generators and tiny independent oracles.

The oracles here are deliberately written with plain itertools loops so they
do not share code paths with the library's vectorized enumeration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from faircluster import ClusteringInstance
from faircluster.fair import build_fair_feasibility_lp
from faircluster.instance import bottleneck_search
from faircluster.lp import LpModel, check_feasible, csr_from_coo


def make_groups(rng, n: int, delta_overlap: int):
    """Partition-based groups: one attribute for Delta = 1, two overlapping
    partitions for Delta = 2. Every group nonempty, ell in [2, 4]."""
    while True:
        if delta_overlap == 1:
            values = int(rng.integers(2, 5))
            labels = rng.integers(0, values, size=n)
            groups = [set(np.flatnonzero(labels == g)) for g in range(values)]
        else:
            a = rng.integers(0, 2, size=n)
            b = rng.integers(0, 2, size=n)
            groups = [set(np.flatnonzero(a == 0)), set(np.flatnonzero(a == 1)),
                      set(np.flatnonzero(b == 0)), set(np.flatnonzero(b == 1))]
        if all(groups):
            return groups


def random_euclidean_instance(rng, n=None, m=None, k=None, p=None,
                              delta_overlap=None, span=20) -> ClusteringInstance:
    n = int(rng.integers(6, 13)) if n is None else n
    m = int(rng.integers(3, 6)) if m is None else m
    k = int(rng.integers(2, 4)) if k is None else k
    k = min(k, m)
    if p is None:
        p = [1.0, 2.0, math.inf][int(rng.integers(3))]
    delta_overlap = int(rng.integers(1, 3)) if delta_overlap is None else delta_overlap
    while True:
        pts = rng.integers(0, span, size=(n, 2)).astype(float)
        if len(np.unique(pts, axis=0)) == n:
            break
    fac = rng.integers(0, span, size=(m, 2)).astype(float) + rng.random((m, 2))
    groups = make_groups(rng, n, delta_overlap)
    return ClusteringInstance.from_points(pts, groups, k=k, p=p, facility_points=fac)


def random_integer_metric_instance(rng, n=6, k=2, p=1.0, delta_overlap=1) -> ClusteringInstance:
    """Explicit integer metric (shortest-path closure of random weights), F = C."""
    w = rng.integers(1, 30, size=(n, n)).astype(float)
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for mid in range(n):
        d = np.minimum(d, d[:, mid, None] + d[None, mid, :])
    groups = make_groups(rng, n, delta_overlap)
    return ClusteringInstance.from_distance_matrix(d, groups, k=k, p=p)


# -- independent tiny oracles -------------------------------------------------

def slow_cost(instance, opened, phi, p) -> float:
    d = [instance.dist_cf[v, phi[v]] for v in range(instance.n)]
    if math.isinf(p):
        return max(d)
    return sum(x**p for x in d) ** (1.0 / p)


def slow_violation(instance, profile, opened, phi) -> float:
    lam = 0.0
    for f in opened:
        members = [v for v in range(instance.n) if phi[v] == f]
        if not members:
            continue
        size = len(members)
        for i in range(instance.ell):
            cnt = sum(1 for v in members if instance.membership[v, i])
            lam = max(lam, cnt - profile.alpha[i] * size, profile.beta[i] * size - cnt)
    return max(0.0, lam)


def slow_fair_assignment_opt(instance, opened, profile, p, lam=0.0):
    """Best (cost, phi) over all assignments with violation <= lam; (inf, None) if none."""
    opened = sorted(opened)
    best, best_phi = math.inf, None
    for phi in itertools.product(opened, repeat=instance.n):
        if slow_violation(instance, profile, opened, phi) <= lam + 1e-9:
            c = slow_cost(instance, opened, phi, p)
            if c < best:
                best, best_phi = c, phi
    return best, best_phi


def full_lp_radius_search(problem):
    """Reference p = inf radius search, one feasibility LP over every in-range
    (client, center) pair per probe: (G*, the vertex found at G*)."""
    return bottleneck_search(
        problem.dist, lambda radius: check_feasible(build_fair_feasibility_lp(problem, radius)))


def row_per_fairness_lp(problem) -> LpModel:
    """Reference finite-p fair LP in the paper's form, over the x variables
    only: two ratio rows per (facility, group), facility-major, each over
    every client, sum_v (1[v in C_i] - alpha_i) x_{v,f} <= 0 and
    sum_v (beta_i - 1[v in C_i]) x_{v,f} <= 0, then one assignment row per
    client."""
    v, j = problem.pairs()
    cost, scale_p = problem.cost
    inst = problem.instance
    ell = inst.ell
    member = inst.membership[v].astype(float)
    data = np.stack([member - np.asarray(problem.profile.alpha),
                     np.asarray(problem.profile.beta) - member], axis=2)
    rows = 2 * ell * j[:, None, None] + np.arange(2 * ell).reshape(ell, 2)
    cols = np.broadcast_to(np.arange(v.size)[:, None, None], rows.shape)
    n_ub = 2 * ell * len(problem.opened)
    return LpModel(
        c=cost[v, j],
        a_ub=csr_from_coo(rows.ravel(), cols.ravel(), data.ravel(), (n_ub, v.size)),
        b_ub=np.zeros(n_ub),
        a_eq=csr_from_coo(v, np.arange(v.size), np.ones(v.size), (inst.n, v.size)),
        b_eq=np.ones(inst.n),
        objective_scale=scale_p,
    )


def slow_vanilla_opt(instance, p=None, k=None):
    """Optimal vanilla cost: min over k-subsets of the nearest-assignment cost."""
    p = instance.p if p is None else p
    k = instance.k if k is None else k
    best = math.inf
    for S in itertools.combinations(range(instance.m), k):
        sub = instance.dist_cf[:, list(S)]
        nearest = sub.min(axis=1)
        c = float(nearest.max()) if math.isinf(p) else float((nearest**p).sum() ** (1.0 / p))
        best = min(best, c)
    return best


def slow_lower_bounded_opt(instance, L, p=None):
    """Optimal lower-bounded cost over all center sets of size <= k."""
    p = instance.p if p is None else p
    best = math.inf
    for size in range(1, instance.k + 1):
        if size * L > instance.n:
            continue
        for S in itertools.combinations(range(instance.m), size):
            for phi in itertools.product(S, repeat=instance.n):
                counts = {f: 0 for f in S}
                for f in phi:
                    counts[f] += 1
                if any(c < L for c in counts.values()):
                    continue
                best = min(best, slow_cost(instance, S, phi, p))
    return best
