"""Fair clustering via LP relaxation and iterative rounding.

Pipeline: a vanilla solver fixes the opened centers S, then the fair
assignment problem on S is relaxed to an LP over x_{v,f}. Integral values
are fixed, the rest is re-solved under floor/ceil cluster-load windows
(per facility and per facility-group pair), dropping any window whose
fractional support falls to 2(Delta+1) or below, until every client is
fixed. The result violates each fairness constraint by at most 4*Delta + 3
additively and costs no more than the initial LP optimum.

For the bottleneck norm (p = inf) there is no linear objective; instead the
optimum radius is guessed by ``bottleneck_search`` over the n x |S| block
of client-to-S distances and a feasibility LP restricted to in-range pairs
is rounded the same way.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instance import (
    Assignment,
    ClusteringInstance,
    FairnessProfile,
    FairnessReport,
    additive_violation,
    bottleneck_search,
    build_report,
)
from .lp import (
    INTEGRALITY_TOL,
    LpModel,
    LpSolution,
    LpStatus,
    SolverError,
    check_feasible,
    csr_from_coo,
    pow2_scale,
    solve_lp,
)
# solve_vanilla is the pipeline's first stage; experiment calls it as fair.solve_vanilla
from .vanilla import VanillaSolution, solve_vanilla  # noqa: F401

CONSERVATION_TOL = 1e-7
_T_SNAP = 1e-7  # fractional loads this close to an integer are treated as integral


class FairnessInfeasibleError(ValueError):
    """The aggregate group ratios rule out any (even fractional) fair assignment."""


def _check_aggregate_ratios(instance: ClusteringInstance, profile: FairnessProfile) -> None:
    """Reject a profile that no fractional assignment can meet, before any LP.

    Sending every client to every opened facility with weight 1/|S| puts the
    dataset ratio r_i in every cluster, so it meets every ratio row (at any
    radius for p = inf) exactly when beta_i <= r_i <= alpha_i. Past this
    check an infeasible fair LP is a solver failure, not a property of the input.
    """
    r = instance.group_ratios
    bad = np.flatnonzero((r < np.asarray(profile.beta) - 1e-12)
                         | (r > np.asarray(profile.alpha) + 1e-12))
    if bad.size:
        i = int(bad[0])
        raise FairnessInfeasibleError(
            f"group {i} has dataset ratio {r[i]:.6f} outside "
            f"[beta={profile.beta[i]:.6f}, alpha={profile.alpha[i]:.6f}]; "
            "no assignment can satisfy the profile in aggregate"
        )


@dataclass(frozen=True)
class FairAssignmentProblem:
    """Fair p-assignment instance: clients of ``instance`` against fixed centers.

    The norm is the instance's: ``p`` reads ``instance.p``, and a problem in
    another norm is built on ``instance.with_p(...)``. The fair stage reads
    distances only from ``dist`` and numbers LP variables only by ``pairs``.
    """

    instance: ClusteringInstance
    opened: tuple[int, ...]
    profile: FairnessProfile

    def __post_init__(self):
        opened = tuple(sorted(dict.fromkeys(self.opened)))
        object.__setattr__(self, "opened", opened)
        if not opened:
            raise ValueError("opened set must be nonempty")
        if not all(0 <= f < self.instance.m for f in opened):
            raise ValueError("opened contains an unknown facility")
        if len(self.profile) != self.instance.ell:
            raise ValueError("profile length must match the number of groups")

    @property
    def p(self) -> float:
        return self.instance.p

    @cached_property
    def dist(self) -> np.ndarray:
        """(n, |S|) distances to the opened facilities; built once, read-only."""
        d = self.instance.dist_cf[:, list(self.opened)]
        d.setflags(write=False)
        return d

    @cached_property
    def cost(self) -> tuple[np.ndarray, float]:
        """Finite-p LP objective ((d/s)^p, s^p), s a power of two ~ max d for
        conditioning; built once, the array read-only."""
        scale = pow2_scale(float(self.dist.max()))
        c = (self.dist / scale) ** self.p
        c.setflags(write=False)
        return c, scale**self.p

    def pairs(self, radius: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
        """LP variable layout: client and opened position ``(v, j)`` of each
        pair at distance <= radius, row-major (all pairs for finite p)."""
        return np.nonzero(self.dist <= radius)


def _assignment_lp(problem: FairAssignmentProblem, v: np.ndarray, j: np.ndarray,
                   cost: np.ndarray, scale: float) -> LpModel:
    """Fair-assignment LP over the variables x_t = x_{v[t], j[t]}.

    ``a_ub`` holds two ratio rows per (facility, group), facility-major, for
    every facility with a variable, then an unsatisfiable empty row per client
    without one; ``a_eq`` holds one assignment row per other client.
    """
    inst = problem.instance
    n, s, ell = inst.n, len(problem.opened), inst.ell
    nnz = v.size
    live = np.bincount(j, minlength=s) > 0
    first_row = 2 * ell * (np.cumsum(live) - 1)
    rows = first_row[j][:, None, None] + np.arange(2 * ell).reshape(ell, 2)
    member = inst.membership[v].astype(float)
    data = np.stack([member - np.asarray(problem.profile.alpha),
                     np.asarray(problem.profile.beta) - member], axis=2)
    cols = np.broadcast_to(np.arange(nnz)[:, None, None], rows.shape)
    served = np.bincount(v, minlength=n) > 0
    n_eq = int(served.sum())
    n_ratio = 2 * ell * int(live.sum())
    b_ub = np.zeros(n_ratio + n - n_eq)
    b_ub[n_ratio:] = -1.0
    return LpModel(
        c=cost,
        a_ub=csr_from_coo(rows.ravel(), cols.ravel(), data.ravel(), (b_ub.size, nnz)),
        b_ub=b_ub,
        a_eq=csr_from_coo((np.cumsum(served) - 1)[v], np.arange(nnz), np.ones(nnz), (n_eq, nnz)),
        b_eq=np.ones(n_eq),
        objective_scale=scale,
    )


def build_fair_lp(problem: FairAssignmentProblem) -> LpModel:
    """The fair-assignment relaxation: minimize sum d(v,f)^p x_{v,f} over x in [0,1]
    with per-(facility, group) ratio rows and one-assignment rows per client.

    Variables are all n x |S| pairs (``problem.pairs()``). The objective is
    ``problem.cost``; the model's ``objective_scale`` restores reported
    objectives to d^p units.
    """
    if math.isinf(problem.p):
        raise ValueError("p = inf has no linear objective; use build_fair_feasibility_lp")
    v, j = problem.pairs()
    cost, scale_p = problem.cost
    return _assignment_lp(problem, v, j, cost[v, j], scale_p)


def build_fair_feasibility_lp(problem: FairAssignmentProblem, guess: float) -> LpModel:
    """Feasibility system for p = inf: same rows as the fair LP but no objective,
    with variables only for pairs at distance <= guess (``problem.pairs(guess)``)."""
    v, j = problem.pairs(guess)
    return _assignment_lp(problem, v, j, np.zeros(v.size), 1.0)


def _build_lp2(problem: FairAssignmentProblem, v: np.ndarray, j: np.ndarray,
               t_f: np.ndarray, t_fi: np.ndarray,
               active_f: np.ndarray, active_fi: np.ndarray) -> LpModel:
    """LP2 over the surviving variables x_{v[t], j[t]}: objective as the fair
    LP, plus a floor/ceil load window (a >= row, then a <= row) for every
    still-active facility and (facility, group) row with support, facility-major,
    and one assignment row per client."""
    inst = problem.instance
    s = len(problem.opened)
    nnz = v.size
    if math.isinf(problem.p):
        c, scale_p = np.zeros(nnz), 1.0
    else:
        cost, scale_p = problem.cost
        c = cost[v, j]
    # window g of facility j: g = 0 its load, g = 1 + i its group-i load
    member = np.concatenate([np.ones((nnz, 1), dtype=bool), inst.membership[v]], axis=1)
    support = np.zeros((s, inst.ell + 1), dtype=np.int64)
    np.add.at(support, j, member)
    windows = np.concatenate([active_f[:, None], active_fi], axis=1) & (support > 0)
    rank = (np.cumsum(windows) - 1).reshape(windows.shape)
    loads = np.concatenate([t_f[:, None], t_fi], axis=1)[windows]
    b_ub = np.stack([-np.floor(loads + _T_SNAP), np.ceil(loads - _T_SNAP)], axis=1).ravel()
    t, g = np.nonzero(member & windows[j])
    rows = 2 * rank[j[t], g][:, None] + np.arange(2)
    data = np.broadcast_to([-1.0, 1.0], rows.shape)
    clients, client_row = np.unique(v, return_inverse=True)
    return LpModel(
        c=c,
        a_ub=csr_from_coo(rows.ravel(), np.repeat(t, 2), data.ravel(), (b_ub.size, nnz)),
        b_ub=b_ub,
        a_eq=csr_from_coo(client_row, np.arange(nnz), np.ones(nnz), (clients.size, nnz)),
        b_eq=np.ones(clients.size),
        objective_scale=scale_p,
    )


def _check_conservation(v: np.ndarray, x: np.ndarray, n: int) -> None:
    """Every client in ``v`` must carry total assignment 1, as its LP row says."""
    total = np.bincount(v, weights=x, minlength=n)
    error = np.where(np.bincount(v, minlength=n) > 0, np.abs(total - 1.0), 0.0)
    worst = int(np.argmax(error))
    if error[worst] > CONSERVATION_TOL:
        raise SolverError(f"LP solution assigns client {worst} a total of {total[worst]!r}, "
                          "not 1; conservation broken")


def _split_integral(v: np.ndarray, x: np.ndarray):
    """Positions of the first variable at 1 of each client, and the mask of
    variables that stay fractional: nonzero and of a client not fixed."""
    ones = np.flatnonzero(x >= 1.0 - INTEGRALITY_TOL)
    _, first = np.unique(v[ones], return_index=True)
    fix = ones[np.sort(first)]
    stays = (x > INTEGRALITY_TOL) & ~np.isin(v, v[fix])
    return fix, stays


def _loads(j: np.ndarray, x: np.ndarray, member: np.ndarray, s: int):
    """Per-facility and per-(facility, group) sums of ``x``, added left to right."""
    t_fi = np.zeros((s, member.shape[1]))
    np.add.at(t_fi, j, x[:, None] * member)
    return np.bincount(j, weights=x, minlength=s), t_fi


@dataclass(frozen=True)
class FairAssignmentResult:
    """Output of iterative rounding: the integral assignment plus diagnostics."""

    assignment: Assignment
    lambda_observed: float
    rounding_iterations: int
    initial_lp_objective: float | None    # sum d^p units; None for p = inf
    lp2_objectives: tuple[float, ...]
    guess: float | None = None            # p = inf only: the G* radius


def iterative_round(problem: FairAssignmentProblem, lp_solution: LpSolution,
                    guess: float | None = None) -> FairAssignmentResult:
    """Round a basic optimal LP solution to an integral fair-ish assignment.

    The LP's variables are ``problem.pairs(guess)``, all pairs when the
    p = inf radius ``guess`` is None; the result carries ``guess``. The loop:
    fix integral values, rebuild the floor/ceil window LP over the fractional
    support, and at each vertex delete zeros, fix ones (decrementing the
    residual loads), then drop any per-(facility, group) row and then any
    per-facility row whose strictly fractional support is at most
    2(Delta+1); re-solve and repeat. Each pass fixes or drops something or
    raises SolverError as stalled (the solver returned a non-vertex point).
    SolverError is also raised when an LP solution does not give each of its
    clients a total of 1 within CONSERVATION_TOL, when the violation exceeds
    4*Delta + 3, and, for finite p, when the rounded sum d^p exceeds the
    initial LP optimum (relative 1e-6, absolute 1e-9).
    """
    if lp_solution.status is not LpStatus.OPTIMAL:
        raise ValueError("iterative_round needs an OPTIMAL basic solution")
    inst = problem.instance
    n, s = inst.n, len(problem.opened)
    x = np.asarray(lp_solution.values, dtype=float)
    v, j = problem.pairs(math.inf if guess is None else guess)
    if v.shape != x.shape:
        raise ValueError("variable layout does not match the LP solution size")
    missing = np.flatnonzero(np.bincount(v, minlength=n) == 0)
    if missing.size:
        raise ValueError(f"client {missing[0]} has no variable in the LP layout")
    _check_conservation(v, x, n)

    pos = np.full(n, -1, dtype=int)   # opened position of each fixed client
    fix, stays = _split_integral(v, x)
    pos[v[fix]] = j[fix]
    v, j = v[stays], j[stays]
    t_f, t_fi = _loads(j, x[stays], inst.membership[v], s)
    active_f = np.ones(s, dtype=bool)
    active_fi = np.ones((s, inst.ell), dtype=bool)
    drop_support = 2 * (inst.delta + 1)
    lp2_objectives: list[float] = []

    while v.size:
        sol = solve_lp(_build_lp2(problem, v, j, t_f, t_fi, active_f, active_fi))
        if sol.status is not LpStatus.OPTIMAL:
            raise SolverError(f"LP2 became {sol.status.value}; rounding invariant broken")
        lp2_objectives.append(sol.objective)
        _check_conservation(v, sol.values, n)

        fix, stays = _split_integral(v, sol.values)
        pos[v[fix]] = j[fix]
        np.subtract.at(t_f, j[fix], 1.0)
        np.subtract.at(t_fi, j[fix], inst.membership[v[fix]])
        progressed = not stays.all()
        v, j = v[stays], j[stays]

        # support of strictly fractional variables per row, post clean-up
        sup_f, sup_fi = _loads(j, np.ones(v.size), inst.membership[v], s)
        drop_fi = active_fi & (sup_fi <= drop_support)
        drop_f = active_f & (sup_f <= drop_support)
        active_fi &= ~drop_fi
        active_f &= ~drop_f
        if not (progressed or drop_fi.any() or drop_f.any()):
            frac = sorted(zip(v.tolist(), j.tolist()))
            raise SolverError(
                "iterative rounding stalled: no variable fixed and no row dropped; "
                f"fractional support {frac[:20]}{'...' if len(frac) > 20 else ''}"
            )

    unassigned = np.flatnonzero(pos < 0)
    if unassigned.size:
        raise SolverError(f"rounding finished with unassigned clients {unassigned[:10].tolist()}")
    assignment = Assignment(inst, problem.opened, np.asarray(problem.opened)[pos])
    lam = additive_violation(inst, problem.profile, assignment)
    if lam > 4 * inst.delta + 3:
        raise SolverError(f"violation {lam} exceeds the 4*Delta+3 bound {4 * inst.delta + 3}")
    initial_obj = None if math.isinf(problem.p) else lp_solution.objective
    if initial_obj is not None:
        rounded = math.fsum(problem.dist[np.arange(n), pos] ** problem.p)
        if rounded > initial_obj * (1 + 1e-6) + 1e-9:
            raise SolverError(f"rounded cost {rounded!r} (sum d^p) exceeds the initial "
                              f"LP optimum {initial_obj!r}")
    return FairAssignmentResult(
        assignment=assignment, lambda_observed=lam,
        rounding_iterations=len(lp2_objectives),
        initial_lp_objective=initial_obj,
        lp2_objectives=tuple(lp2_objectives), guess=guess,
    )


def fair_assign_k_center(problem: FairAssignmentProblem) -> FairAssignmentResult:
    """Bottleneck fair assignment: binary search the smallest fractionally
    feasible radius G* over the client-to-S distances (each probe one
    feasibility LP), then round the feasible vertex found at G*. Every
    assigned distance ends up <= G*, which the result carries as ``guess``."""
    if not math.isinf(problem.p):
        raise ValueError("fair_assign_k_center is the p = inf path")
    _check_aggregate_ratios(problem.instance, problem.profile)
    # the largest radius is feasible once the aggregate ratios pass
    guess, sol = bottleneck_search(
        problem.dist, lambda radius: check_feasible(build_fair_feasibility_lp(problem, radius)))
    if sol is None:
        raise SolverError(f"feasibility LP at the largest radius {guess!r} is infeasible "
                          "though the aggregate ratios pass; solver contract violated")
    result = iterative_round(problem, sol, guess)
    radius = result.assignment.cost_p  # the largest assigned distance for p = inf
    if radius > guess + 1e-9:
        raise SolverError(f"rounded radius {radius} exceeds feasible guess {guess}")
    return result


def fair_assignment(problem: FairAssignmentProblem) -> FairAssignmentResult:
    """Solve the fair p-assignment problem on fixed centers end to end.

    Vacuous profiles short-circuit to the nearest assignment (the LP optimum
    is integral and separable in that case, and this keeps tie-breaking
    aligned with the vanilla solver); for p = inf its radius is the largest
    nearest-center distance.
    """
    if problem.profile.is_vacuous:
        d = problem.dist
        nearest = np.argmin(d, axis=1)  # ties -> lowest facility index
        dsel = d[np.arange(d.shape[0]), nearest]
        bottleneck = math.isinf(problem.p)
        return FairAssignmentResult(
            assignment=Assignment(problem.instance, problem.opened,
                                  np.asarray(problem.opened)[nearest]),
            lambda_observed=0.0, rounding_iterations=0,
            initial_lp_objective=None if bottleneck else float(np.sum(dsel**problem.p)),
            lp2_objectives=(), guess=float(dsel.max()) if bottleneck else None,
        )
    if math.isinf(problem.p):
        return fair_assign_k_center(problem)
    _check_aggregate_ratios(problem.instance, problem.profile)
    sol = solve_lp(build_fair_lp(problem))
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverError(f"fair LP ended {sol.status.value} though the aggregate ratios "
                          "admit the proportional solution; solver contract violated")
    return iterative_round(problem, sol)


@dataclass(frozen=True)
class FairClusteringResult:
    vanilla: VanillaSolution
    solution: Assignment
    report: FairnessReport
    fair: FairAssignmentResult

    @property
    def lambda_observed(self) -> float:
        return self.fair.lambda_observed


def fair_clustering(vanilla: VanillaSolution, profile: FairnessProfile) -> FairClusteringResult:
    """Run the fair stage on a vanilla solution: fair assignment on its
    centers S, then the report. ``solve_vanilla`` makes the solution; one
    solve serves every profile of the same (instance, k, solver, seed).

    The additive violation of the result is at most 4*Delta + 3, whatever the
    vanilla solver did.
    """
    instance = vanilla.assignment.instance
    t0 = time.perf_counter()
    problem = FairAssignmentProblem(instance, vanilla.opened, profile)
    result = fair_assignment(problem)
    t1 = time.perf_counter()
    report = build_report(
        instance, profile, result.assignment, vanilla.cost_p,
        timings_ms={"fair_assignment": (t1 - t0) * 1e3},
    )
    return FairClusteringResult(vanilla=vanilla, solution=result.assignment,
                                report=report, fair=result)
