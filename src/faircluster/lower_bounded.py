"""Lower-bounded clustering: every opened facility must serve at least L clients.

The FPT route: run any vanilla solver to fix candidate centers S, then over
the nonempty subsets T of S solve a min-cost b-matching in which each client
is matched once and each facility of T receives at least L clients.

The matching reduces exactly to one rectangular assignment problem: L slot
rows per facility of T, each filled by a distinct client at the reduced cost
c(v,f) - min_{g in T} c(v,g), with every other client sent to its nearest
facility of T; scipy's ``linear_sum_assignment`` solves it. Dropping the
slots leaves the lower bound sum_v min_{f in T} c(v,f) on T's cost, so
subsets are visited in increasing bound order and the enumeration stops at
the first bound above the best cost found. For the bottleneck norm the best
radius is binary-searched, each probe one assignment on the 0/1 matrix
"slot facility farther than r".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .instance import Assignment, ClusteringInstance, bottleneck_search
from .vanilla import SolverId, VanillaSolution, default_solver_for, solve_vanilla

SUBSET_ENUMERATION_CAP = 20
# a bound this far above the best cost rules a subset out despite float rounding
PRUNE_SLACK = 1e-9


class LbInfeasibleError(ValueError):
    """No subset of centers can serve every facility with at least L clients."""


def _assign_slots(fac: np.ndarray, near: np.ndarray, slot_cost: np.ndarray,
                  L: int) -> tuple[np.ndarray, float]:
    """Fill L slots per facility with distinct clients at the least total
    ``slot_cost`` (clients x facilities); every other client goes to its row
    minimum of ``near``, ties to the lowest index. Returns (phi, slot cost)."""
    rows, cols = linear_sum_assignment(np.repeat(slot_cost.T, L, axis=0))
    phi = fac[np.argmin(near, axis=1)]
    phi[cols] = fac[rows // L]
    return phi, slot_cost[cols, rows // L].sum()


def min_cost_lb_matching(instance: ClusteringInstance, facilities,
                         L: int) -> tuple[np.ndarray, float] | None:
    """Minimum-cost assignment of all clients to ``facilities`` where every
    facility receives at least L clients; edge costs are d(v,f)^p in the
    instance norm.

    Returns (phi over all clients, total cost^p), or None when infeasible
    (exactly when L * |facilities| > n). Finite p only; the bottleneck case
    goes through lb_clustering's radius search.
    """
    p = instance.p
    if math.isinf(p):
        raise ValueError("min_cost_lb_matching needs finite p")
    fac = np.asarray(sorted(dict.fromkeys(int(f) for f in facilities)), dtype=int)
    if not fac.size:
        raise ValueError("facility subset must be nonempty")
    n = instance.n
    if L * len(fac) > n:
        return None
    c = instance.dist_cf[:, fac] ** p
    phi, _ = _assign_slots(fac, c, c - c.min(axis=1, keepdims=True), L)
    return phi, math.fsum(instance.dist_cf[np.arange(n), phi] ** p)


def _bottleneck_lb_matching(instance: ClusteringInstance, fac: list[int],
                            L: int) -> tuple[np.ndarray, float] | None:
    """Smallest radius G such that a matching with all arcs d <= G exists;
    returns (phi, G) or None when L * |fac| > n."""
    if L * len(fac) > instance.n:
        return None
    fac = np.asarray(fac, dtype=int)
    d = instance.dist_cf[:, fac]

    def attempt(radius: float) -> np.ndarray | None:
        # clients off the slots go to their nearest facility, which every
        # probed radius covers since none lies below max_v min_f d(v,f)
        phi, misses = _assign_slots(fac, d, d > radius, L)
        return phi if misses == 0 else None

    radius, phi = bottleneck_search(d, attempt)
    return phi, radius


@dataclass(frozen=True)
class LbClusteringResult:
    vanilla: VanillaSolution
    solution: Assignment
    subsets_evaluated: int
    subsets_solved: int

    @property
    def cost_p(self) -> float:
        return self.solution.cost_p


def lb_clustering(instance: ClusteringInstance, L: int,
                  solver_id: SolverId | None = None, seed: int = 0) -> LbClusteringResult:
    """Lower-bounded (k,p)-clustering by subset enumeration over vanilla centers.

    Enumerates all 2^|S| - 1 nonempty subsets of the instance.k <=
    SUBSET_ENUMERATION_CAP centers S the vanilla solver opens; infeasible
    subsets (L * |T| > n) are skipped.
    The rest are solved in increasing order of their nearest-center lower bound until
    that bound exceeds the best cost, which rules out every later subset.
    Ties on cost break to the lexicographically smallest subset, so the
    result is independent of the visiting order. Every cluster of the
    result has size >= L.
    """
    if instance.k > SUBSET_ENUMERATION_CAP:
        raise ValueError(f"k={instance.k} exceeds the subset enumeration cap "
                         f"{SUBSET_ENUMERATION_CAP}")
    if not (1 <= L <= instance.n):
        raise LbInfeasibleError(f"L={L} must lie in [1, n={instance.n}]")
    if solver_id is None:
        solver_id = default_solver_for(instance.p)
    vanilla = solve_vanilla(instance, solver_id, seed)
    S = sorted(vanilla.opened)
    bottleneck = math.isinf(instance.p)
    near = instance.dist_cf[:, S] if bottleneck else instance.dist_cf[:, S] ** instance.p

    def lower_bound(cols: tuple[int, ...]) -> float:
        nearest = near[:, list(cols)].min(axis=1)
        return float(nearest.max() if bottleneck else nearest.sum())

    candidates = sorted(
        (lower_bound(cols), tuple(S[j] for j in cols))
        for size in range(1, len(S) + 1) if L * size <= instance.n
        for cols in itertools.combinations(range(len(S)), size)
    )
    best: tuple[float, tuple[int, ...], np.ndarray] | None = None
    solved = 0
    for bound, T in candidates:
        if best is not None and bound > best[0] * (1.0 + PRUNE_SLACK):
            break
        solved += 1
        if bottleneck:
            phi, cost = _bottleneck_lb_matching(instance, list(T), L)
        else:
            phi, cost = min_cost_lb_matching(instance, T, L)
        if best is None or (cost, T) < (best[0], best[1]):
            best = (cost, T, phi)
    if best is None:
        raise LbInfeasibleError(
            f"no feasible subset: L={L} cannot be met by any T of the {len(S)} centers"
        )
    cost, T, phi = best
    assignment = Assignment(instance, T, phi)
    sizes = assignment.cluster_sizes()
    short = {f: s for f, s in sizes.items() if s < L}
    if short:
        raise RuntimeError(f"matching postcondition broken: clusters below L: {short}")
    return LbClusteringResult(vanilla=vanilla, solution=assignment,
                              subsets_evaluated=2 ** len(S) - 1, subsets_solved=solved)
