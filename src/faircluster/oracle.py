"""Independent brute-force oracles and the almost-fair LP lower bound.

These exist to check the main pipeline, so they deliberately share as little
code with it as possible: optima come from exhaustive enumeration of center
subsets and assignment maps, whose costs and cluster-by-group count tables are
Kronecker sums over the clients, built in blocks of at most _CHUNK codes, and
the almost-fair LP re-derives a cost floor for any clustering within a
given additive fairness violation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instance import ClusteringInstance, FairnessProfile
from .lp import LpModel, LpStatus, SolverError, csr_from_coo, pow2_scale, solve_lp

DEFAULT_GUARD = 10_000_000
_CHUNK = 1 << 15
_EPS = 1e-9


class GuardExceededError(ValueError):
    """Enumeration would visit more states than the caller allowed."""


@dataclass(frozen=True)
class OracleResult:
    """Optima found by exhaustive search; any subset of fields may be populated.

    Infeasible fair/lower-bounded problems carry +inf. Witnesses are
    (opened, phi) pairs.
    """

    opt_vnll: float | None = None
    opt_fair: float | None = None
    opt_asgn: float | None = None
    opt_lbnd: float | None = None
    witness_vnll: tuple[tuple[int, ...], np.ndarray] | None = None
    witness_fair: tuple[tuple[int, ...], np.ndarray] | None = None
    witness_asgn: tuple[tuple[int, ...], np.ndarray] | None = None
    witness_lbnd: tuple[tuple[int, ...], np.ndarray] | None = None

    def __post_init__(self):
        if self.opt_vnll is not None and self.opt_fair is not None:
            if self.opt_vnll > self.opt_fair + 1e-9:
                raise ValueError("opt_vnll must never exceed opt_fair")

    @property
    def fair_infeasible(self) -> bool:
        return self.opt_fair is not None and math.isinf(self.opt_fair)


def _estimate_states(m: int, k: int, n: int) -> float:
    return math.comb(m, k) * float(k) ** n


def _best_maps(instance: ClusteringInstance, subsets, size: int, admissible):
    """The cheapest map overall and the cheapest admissible map, each as
    (value in the instance norm, (S, phi)), over every subset S in
    ``subsets`` (all of length ``size``) and every map of the clients onto
    S's positions; (inf, None) when no map is admissible.

    Code c sends client v to position (c // size**v) % size. A code's cost
    sum_v d(v, S[digit_v])^p (the max for p = inf) and its table of cluster
    sizes and group counts are Kronecker sums, extended one client at a time
    with client 0 least significant. The low clients, whose codes over all
    subsets fit in _CHUNK, form one block built once; each high code adds its
    own precomputed sum and counts to that block. ``admissible`` maps a
    (codes, size, 1 + ell) table, column 0 the cluster size, to a mask. The
    table ignores which facilities fill the positions, so every subset shares
    one mask per block.
    """
    n, p = instance.n, instance.p
    op = np.maximum if math.isinf(p) else np.add
    dist = instance.dist_cf[:, np.asarray(subsets)]
    if not math.isinf(p):
        dist = dist**p
    unit = np.concatenate([np.ones((n, 1), bool), instance.membership], axis=1)
    unit = unit.astype(np.min_scalar_type(n))
    diag = np.arange(size)

    def kron(clients):
        costs = np.zeros((len(subsets), 1))
        table = np.zeros((1, size, unit.shape[1]), unit.dtype)
        for v in clients:
            costs = op(dist[v][:, :, None], costs[:, None, :]).reshape(len(subsets), -1)
            step = np.zeros((size, 1, size, unit.shape[1]), unit.dtype)
            step[diag, 0, diag] = unit[v]
            table = (step + table).reshape(-1, size, unit.shape[1])
        return costs, table

    n_lo = 0
    while n_lo < n and len(subsets) * size ** (n_lo + 1) <= _CHUNK:
        n_lo += 1
    lo_costs, lo_table = kron(range(n_lo))
    hi_costs, hi_table = kron(range(n_lo, n))
    block = lo_table.shape[0]
    all_codes = np.arange(block)
    best = [(math.inf, None), (math.inf, None)]
    for h in range(hi_table.shape[0]):
        costs = op(lo_costs, hi_costs[:, h, None])
        ok = np.flatnonzero(admissible(lo_table + hi_table[h]))
        for slot, codes in enumerate((all_codes, ok)):
            if codes.size:
                vals = costs[:, codes]
                i, j = np.unravel_index(np.argmin(vals), vals.shape)
                if vals[i, j] < best[slot][0]:
                    best[slot] = (float(vals[i, j]), (i, h * block + codes[j]))

    def finish(value, found):
        if found is None:
            return math.inf, None
        S = tuple(subsets[found[0]])
        digits = found[1] // size ** np.arange(n) % size
        return float(value if math.isinf(p) else value ** (1.0 / p)), (S, np.asarray(S)[digits])

    return [finish(*b) for b in best]


def _best_over_sizes(instance: ClusteringInstance, sizes, admissible):
    """_best_maps over all center subsets of each size; a smaller size wins ties."""
    best = [(math.inf, None), (math.inf, None)]
    for size in sizes:
        subsets = list(itertools.combinations(range(instance.m), size))
        found = _best_maps(instance, subsets, size, admissible)
        best = [f if f[0] < b[0] else b for b, f in zip(best, found)]
    return best


def _within(profile: FairnessProfile, lam: float, n: int):
    """Admissible mask: every cluster misses every ratio bound by at most lam.
    The verdict for each (cluster size, group, count) is tabulated once, one
    cluster size at a time, in (n + 1)^2 * ell bytes."""
    alpha, beta = np.asarray(profile.alpha)[:, None], np.asarray(profile.beta)[:, None]
    count = np.arange(n + 1)
    ok = np.stack([np.maximum(count - alpha * size, beta * size - count) <= lam + _EPS
                   for size in range(n + 1)]).ravel()
    row = np.arange(len(profile)) * (n + 1)
    per_size = np.intp(len(profile) * (n + 1))
    return lambda table: ok[table[..., :1] * per_size + row + table[..., 1:]].all(axis=(1, 2))


def brute_force_assignment(instance: ClusteringInstance, opened,
                           profile: FairnessProfile, lam: float = 0.0,
                           max_size_guard: int = DEFAULT_GUARD) -> OracleResult:
    """Exhaustive fair-assignment optimum on fixed centers in the instance
    norm, allowing up to ``lam`` additive violation (0 = exactly fair)."""
    opened = tuple(sorted(dict.fromkeys(int(f) for f in opened)))
    s, n = len(opened), instance.n
    states = float(s) ** n
    if states > max_size_guard:
        raise GuardExceededError(f"{states:.3g} assignments exceed guard {max_size_guard}")
    _, (value, witness) = _best_maps(instance, [opened], s, _within(profile, lam, n))
    return OracleResult(opt_asgn=value, witness_asgn=witness)


def brute_force_fair(instance: ClusteringInstance, profile: FairnessProfile,
                     max_size_guard: int = DEFAULT_GUARD) -> OracleResult:
    """Enumerate every center set of size <= k and every assignment map;
    record the overall optimum (opt_vnll) and the exactly-fair optimum
    (opt_fair, +inf when no exactly-fair assignment exists)."""
    n, m, k = instance.n, instance.m, instance.k
    states = _estimate_states(m, k, n)
    if states > max_size_guard:
        raise GuardExceededError(
            f"about {states:.3g} states (C({m},{k}) * {k}^{n}) exceed guard {max_size_guard}"
        )
    (vnll, wv), (fair, wf) = _best_over_sizes(instance, range(1, k + 1), _within(profile, 0.0, n))
    return OracleResult(opt_vnll=vnll, opt_fair=fair, witness_vnll=wv, witness_fair=wf)


def brute_force_lower_bounded(instance: ClusteringInstance, L: int,
                              max_size_guard: int = DEFAULT_GUARD) -> OracleResult:
    """Exhaustive optimum over center sets and assignments where every opened
    facility serves at least L clients."""
    n, m, k = instance.n, instance.m, instance.k
    states = _estimate_states(m, k, n)
    if states > max_size_guard:
        raise GuardExceededError(f"about {states:.3g} states exceed guard {max_size_guard}")
    sizes = [size for size in range(1, k + 1) if size * L <= n]
    _, (value, witness) = _best_over_sizes(
        instance, sizes, lambda table: (table[..., 0] >= L).all(axis=1))
    return OracleResult(opt_lbnd=value, witness_lbnd=witness)


def almost_fair_lp(instance: ClusteringInstance, profile: FairnessProfile,
                   lam: float) -> float:
    """Cost lower bound for any clustering whose additive violation is <= lam.

    Solves the center-opening relaxation over all of F: assignment variables
    coupled to opening variables y_f with sum y_f <= k, and fairness rows
    relaxed additively by lam. Returns objective^(1/p). Fractional only; the
    value is used as a floor, never rounded into a clustering.
    """
    p = instance.p
    if math.isinf(p):
        raise ValueError("the almost-fair LP needs finite p")
    n, m, k = instance.n, instance.m, instance.k
    d = instance.dist_cf
    scale = pow2_scale(float(d.max()))
    ell = instance.ell
    nx = n * m
    # variables: x_{v,f} at v * m + f (v major), then y_f at nx + f
    x_idx = np.arange(nx)
    y_of_x = nx + x_idx % m
    member = instance.membership.astype(float)
    # <= rows: x_{v,f} - y_f (one per pair), sum_f y_f, then two ratio rows
    # per (facility, group), facility-major, over that facility's column
    ratio_rows = nx + 1 + 2 * (ell * (x_idx % m)[:, None, None]
                               + np.arange(ell)[:, None]) + np.arange(2)
    ratio_data = np.stack([member - np.asarray(profile.alpha),
                           np.asarray(profile.beta) - member], axis=2)[x_idx // m]
    rows = np.concatenate([np.repeat(x_idx, 2), np.full(m, nx), ratio_rows.ravel()])
    cols = np.concatenate([np.stack([x_idx, y_of_x], axis=1).ravel(), nx + np.arange(m),
                           np.broadcast_to(x_idx[:, None, None], ratio_rows.shape).ravel()])
    data = np.concatenate([np.tile([1.0, -1.0], nx), np.ones(m), ratio_data.ravel()])
    n_ub = nx + 1 + 2 * m * ell
    b_ub = np.full(n_ub, float(lam))
    b_ub[:nx] = 0.0
    b_ub[nx] = float(k)
    model = LpModel(
        c=np.concatenate([((d / scale) ** p).ravel(), np.zeros(m)]),
        a_ub=csr_from_coo(rows, cols, data, (n_ub, nx + m)),
        b_ub=b_ub,
        a_eq=csr_from_coo(x_idx // m, x_idx, np.ones(nx), (n, nx + m)),
        b_eq=np.ones(n),
        objective_scale=scale**p,
    )

    sol = solve_lp(model)
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverError(f"almost-fair LP ended {sol.status.value}")
    return float(max(sol.objective, 0.0) ** (1.0 / p))
