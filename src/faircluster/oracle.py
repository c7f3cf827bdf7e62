"""Independent brute-force oracles and the almost-fair LP lower bound.

These exist to check the main pipeline, so they deliberately share as little
code with it as possible: optima come from exhaustive enumeration of center
subsets and assignment maps (vectorized over chunks of the assignment space),
and the almost-fair LP re-derives a cost floor for any clustering within a
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


def _assignment_chunks(s: int, n: int):
    """Yield (count, digits) blocks covering all s^n assignment maps.

    digits is a (count, n) uint8 array; column j holds the facility position
    client j is assigned to.
    """
    total = s**n
    pows = (s ** np.arange(n, dtype=np.int64)).astype(np.int64)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        codes = np.arange(lo, hi, dtype=np.int64)
        digits = ((codes[:, None] // pows[None, :]) % s).astype(np.uint8)
        yield digits


def _chunk_costs(digits: np.ndarray, dsub: np.ndarray, p: float) -> np.ndarray:
    n = digits.shape[1]
    gathered = dsub[np.arange(n)[None, :], digits]
    if math.isinf(p):
        return gathered.max(axis=1)
    return (gathered**p).sum(axis=1)


def _chunk_violations(digits: np.ndarray, membership: np.ndarray,
                      profile: FairnessProfile, s: int) -> np.ndarray:
    """Max additive violation per enumerated assignment (vectorized).

    Depends only on the assignment pattern and the group structure, never on
    which facilities realize the positions, so callers can reuse it across
    every same-size facility subset.
    """
    chunk = digits.shape[0]
    lam = np.zeros(chunk)
    for j in range(s):
        onehot = digits == j
        size = onehot.sum(axis=1)
        for i in range(len(profile)):
            cnt = onehot[:, membership[:, i]].sum(axis=1)
            lam = np.maximum(lam, cnt - profile.alpha[i] * size)
            lam = np.maximum(lam, profile.beta[i] * size - cnt)
    return np.maximum(lam, 0.0)


def brute_force_assignment(instance: ClusteringInstance, opened,
                           profile: FairnessProfile, lam: float = 0.0,
                           max_size_guard: int = DEFAULT_GUARD) -> OracleResult:
    """Exhaustive fair-assignment optimum on fixed centers in the instance
    norm, allowing up to ``lam`` additive violation (0 = exactly fair)."""
    p = instance.p
    opened = tuple(sorted(dict.fromkeys(int(f) for f in opened)))
    s, n = len(opened), instance.n
    states = float(s) ** n
    if states > max_size_guard:
        raise GuardExceededError(f"{states:.3g} assignments exceed guard {max_size_guard}")
    dsub = instance.dist_cf[:, list(opened)]

    best = math.inf
    best_digits = None
    for digits in _assignment_chunks(s, n):
        costs = _chunk_costs(digits, dsub, p)
        viol = _chunk_violations(digits, instance.membership, profile, s)
        ok = viol <= lam + _EPS
        if ok.any():
            idx = np.flatnonzero(ok)
            j = idx[np.argmin(costs[idx])]
            if costs[j] < best:
                best = float(costs[j])
                best_digits = digits[j].copy()

    if best_digits is None:
        return OracleResult(opt_asgn=math.inf)
    phi = np.asarray([opened[j] for j in best_digits], dtype=int)
    value = best if math.isinf(p) else best ** (1.0 / p)
    return OracleResult(opt_asgn=float(value), witness_asgn=(opened, phi))


def brute_force_fair(instance: ClusteringInstance, profile: FairnessProfile,
                     max_size_guard: int = DEFAULT_GUARD) -> OracleResult:
    """Enumerate every center set of size <= k and every assignment map;
    record the overall optimum (opt_vnll) and the exactly-fair optimum
    (opt_fair, +inf when no exactly-fair assignment exists)."""
    n, m, k, p = instance.n, instance.m, instance.k, instance.p
    states = _estimate_states(m, k, n)
    if states > max_size_guard:
        raise GuardExceededError(
            f"about {states:.3g} states (C({m},{k}) * {k}^{n}) exceed guard {max_size_guard}"
        )

    best_any, best_fair = math.inf, math.inf
    wit_any, wit_fair = None, None
    for size in range(1, k + 1):
        subsets = list(itertools.combinations(range(m), size))
        dsubs = [instance.dist_cf[:, list(S)] for S in subsets]
        for digits in _assignment_chunks(size, n):
            # the fairness mask is independent of which facilities fill the
            # positions, so compute it once and reuse for every subset
            viol = _chunk_violations(digits, instance.membership, profile, size)
            ok_idx = np.flatnonzero(viol <= _EPS)
            for S, dsub in zip(subsets, dsubs):
                costs = _chunk_costs(digits, dsub, p)
                j_any = int(np.argmin(costs))
                if costs[j_any] < best_any:
                    best_any = float(costs[j_any])
                    wit_any = (S, digits[j_any].copy())
                if ok_idx.size:
                    j = ok_idx[np.argmin(costs[ok_idx])]
                    if costs[j] < best_fair:
                        best_fair = float(costs[j])
                        wit_fair = (S, digits[j].copy())

    def finish(val, wit):
        if wit is None:
            return math.inf, None
        S, digits = wit
        phi = np.asarray([S[d] for d in digits], dtype=int)
        v = val if math.isinf(p) else val ** (1.0 / p)
        return float(v), (tuple(S), phi)

    vnll, wv = finish(best_any, wit_any)
    fair, wf = finish(best_fair, wit_fair)
    return OracleResult(opt_vnll=vnll, opt_fair=fair,
                        witness_vnll=wv, witness_fair=wf)


def brute_force_lower_bounded(instance: ClusteringInstance, L: int,
                              max_size_guard: int = DEFAULT_GUARD) -> OracleResult:
    """Exhaustive optimum over center sets and assignments where every opened
    facility serves at least L clients."""
    n, m, k, p = instance.n, instance.m, instance.k, instance.p
    states = _estimate_states(m, k, n)
    if states > max_size_guard:
        raise GuardExceededError(f"about {states:.3g} states exceed guard {max_size_guard}")

    best, wit = math.inf, None
    for size in range(1, k + 1):
        if size * L > n:
            continue
        subsets = list(itertools.combinations(range(m), size))
        dsubs = [instance.dist_cf[:, list(S)] for S in subsets]
        for digits in _assignment_chunks(size, n):
            sizes = np.stack([(digits == j).sum(axis=1) for j in range(size)], axis=1)
            ok_idx = np.flatnonzero((sizes >= L).all(axis=1))
            if not ok_idx.size:
                continue
            for S, dsub in zip(subsets, dsubs):
                costs = _chunk_costs(digits, dsub, p)
                j = ok_idx[np.argmin(costs[ok_idx])]
                if costs[j] < best:
                    best = float(costs[j])
                    wit = (S, digits[j].copy())
    if wit is None:
        return OracleResult(opt_lbnd=math.inf)
    S, digits = wit
    phi = np.asarray([S[d] for d in digits], dtype=int)
    value = best if math.isinf(p) else best ** (1.0 / p)
    return OracleResult(opt_lbnd=float(value), witness_lbnd=(tuple(S), phi))


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
