"""Vanilla (k,p)-clustering solvers used as the black-box approximation step.

Three classics: Gonzalez farthest-point traversal for k-center, single-swap
local search (D-sampled starts, best of a few trials) for k-median, and
k-means++ with Lloyd iterations for k-means. Each opens ``instance.k``
centers and is deterministic given (instance, seed): randomness flows from
the single seed through numpy SeedSequence spawn keys, so independent trials
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse import csr_array

from .instance import Assignment, ClusteringInstance, nearest_assignment

# local search takes a swap only if it cuts the cost by more than SWAP_EPS / k of it
SWAP_EPS = 1e-3
# k-median keeps the best of this many independently seeded local searches
LOCAL_SEARCH_TRIALS = 5
# Lloyd stops after this many iterations or below this relative SSE improvement
LLOYD_MAX_ITERS = 300
LLOYD_REL_TOL = 1e-6


class SolverId(Enum):
    K_CENTER_GONZALEZ = "gonzalez"
    K_MEDIAN_LOCAL_SEARCH = "local_search"
    K_MEANS_LLOYD = "kmeans"


@dataclass(frozen=True)
class VanillaSolution:
    """Opened centers plus the nearest-facility assignment and solver metadata.

    ``lloyd_costs`` records the per-iteration SSE trace for the k-means
    solver (None for the others); useful for monotonicity checks.
    """

    assignment: Assignment
    solver_id: SolverId
    seed: int
    lloyd_costs: tuple[float, ...] | None = None

    @property
    def opened(self) -> tuple[int, ...]:
        return self.assignment.opened

    @property
    def phi(self) -> np.ndarray:
        return self.assignment.phi

    @property
    def cost_p(self) -> float:
        return self.assignment.cost_p


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _nearest_unchosen_facility(instance, client: int, chosen: np.ndarray) -> int:
    """Nearest facility to ``client`` outside the mask ``chosen``, ties to the lowest index."""
    if chosen.all():
        raise RuntimeError("no unchosen facility left")
    return int(np.argmin(np.where(chosen, np.inf, instance.dist_cf[client])))


def _fill_centers(instance: ClusteringInstance, centers: list[int], pick) -> list[int]:
    """Extend ``centers`` to k: each new center is the unchosen facility
    nearest to the client ``pick(mind)`` returns, where ``mind`` holds every
    client's distance to the chosen set."""
    centers = list(centers)
    chosen = np.zeros(instance.m, dtype=bool)
    chosen[centers] = True
    mind = instance.dist_cf[:, centers].min(axis=1)
    while len(centers) < instance.k:
        f = _nearest_unchosen_facility(instance, pick(mind), chosen)
        centers.append(f)
        chosen[f] = True
        np.minimum(mind, instance.dist_cf[:, f], out=mind)
    return centers


def _farthest_point_fill(instance: ClusteringInstance, centers: list[int]) -> list[int]:
    """Extend ``centers`` to k by farthest-point additions: each new center is
    the unchosen facility nearest to the client farthest from the chosen set."""
    return _fill_centers(instance, centers, lambda mind: int(np.argmax(mind)))


def gonzalez_k_center(instance: ClusteringInstance, seed: int = 0) -> VanillaSolution:
    """Farthest-point traversal (2-approximation for the bottleneck objective).

    The first center is a seeded draw from F when F = C, else the
    lowest-index facility; each following center is the facility nearest to
    the client currently farthest from the chosen set.
    """
    if instance.facilities_are_clients:
        start = int(_rng(seed, 0).integers(instance.m))
    else:
        start = 0
    centers = _farthest_point_fill(instance, [start])
    phi = nearest_assignment(instance, centers)
    return VanillaSolution(
        assignment=Assignment(instance, tuple(centers), phi),
        solver_id=SolverId.K_CENTER_GONZALEZ, seed=seed,
    )


# -- k-median local search ---------------------------------------------------

def _d_sample_centers(instance: ClusteringInstance, rng: np.random.Generator) -> list[int]:
    """Seed k centers by D-sampling: draw a client with probability
    proportional to d(client, chosen), open its nearest unchosen facility."""
    n = instance.n

    def draw(mind: np.ndarray) -> int:
        tot = mind.sum()
        return int(rng.choice(n, p=mind / tot)) if tot > 0 else int(rng.integers(n))

    first = _nearest_unchosen_facility(instance, int(rng.integers(n)),
                                       np.zeros(instance.m, dtype=bool))
    return _fill_centers(instance, [first], draw)


def _swap_pass(dist_cf: np.ndarray, centers: list[int], threshold: float):
    """Best single swap (f_out, f_in); returns (new_cost, f_out, f_in) or None.

    With d1, d2 each client's nearest and second-nearest center distances and
    D the (n, m - k) block of distances to the unopened facilities, a client
    served after the swap pays M1 = min(d1, D) unless f_out was its nearest
    center, in which case it pays min(d2, D) = M1 + G. So every swap's cost is
    ``M1.sum(0) + onehot(nearest) @ G``: one gather, two n x (m - k) buffers
    and O(n (m - k)) work per pass, whatever k is. Ties go to the first
    row-major (position of f_out, index of f_in).
    """
    n, m = dist_cf.shape
    k = len(centers)
    sub = dist_cf[:, centers]                       # (n, k)
    order = np.argsort(sub, axis=1, kind="stable")
    nearest = order[:, 0]
    d1 = sub[np.arange(n), nearest]
    d2 = sub[np.arange(n), order[:, 1]] if k > 1 else np.full(n, np.inf)
    cost = d1.sum()

    in_set = np.zeros(m, dtype=bool)
    in_set[centers] = True
    candidates = np.flatnonzero(~in_set)
    if candidates.size == 0:
        return None

    # take keeps the block C-ordered (dist_cf[:, candidates] is F-ordered),
    # so the sparse product below reads it without a third copy
    m1 = np.take(dist_cf, candidates, axis=1)       # becomes M1 in place
    gain = np.minimum(d2[:, None], m1)
    np.minimum(d1[:, None], m1, out=m1)
    gain -= m1
    # a sparse (k, n) one-hot of ``nearest``: its product is O(n (m - k)) and
    # never wakes BLAS, whose first dense product alone adds ~0.9 MB of RSS
    indptr = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(np.bincount(nearest, minlength=k), out=indptr[1:])
    onehot = csr_array((np.ones(n), np.argsort(nearest, kind="stable"), indptr), shape=(k, n))
    new_costs = m1.sum(axis=0) + onehot @ gain      # (k, m - k)
    pos, j = divmod(int(np.argmin(new_costs)), candidates.size)
    best = float(new_costs[pos, j])
    if best < threshold * cost:
        return best, centers[pos], int(candidates[j])
    return None


def local_search_k_median(instance: ClusteringInstance, seed: int = 0) -> VanillaSolution:
    """Single-swap local search on the sum-of-distances objective.

    Each trial D-samples a start and applies the best improving swap while
    it beats the (1 - SWAP_EPS/k) improvement threshold; the best of
    LOCAL_SEARCH_TRIALS independent runs is returned. Solution cost is
    reported in the instance norm, the search itself optimizes l_1.
    """
    k = instance.k
    threshold = 1.0 - SWAP_EPS / k
    best_centers, best_cost = None, math.inf
    for t in range(LOCAL_SEARCH_TRIALS):
        rng = _rng(seed, 1, t)
        centers = _d_sample_centers(instance, rng)
        if k < instance.m:
            while True:
                swap = _swap_pass(instance.dist_cf, centers, threshold)
                if swap is None:
                    break
                _, f_out, f_in = swap
                centers[centers.index(f_out)] = f_in
        cost = instance.dist_cf[:, centers].min(axis=1).sum()
        if cost < best_cost:
            best_cost, best_centers = cost, list(centers)
    phi = nearest_assignment(instance, best_centers)
    return VanillaSolution(
        assignment=Assignment(instance, tuple(best_centers), phi),
        solver_id=SolverId.K_MEDIAN_LOCAL_SEARCH, seed=seed,
    )


# -- k-means ------------------------------------------------------------------

def _dsq_to_centroids(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    idx = [int(rng.integers(n))]
    dsq = ((points - points[idx[0]]) ** 2).sum(axis=1)
    while len(idx) < k:
        tot = dsq.sum()
        if tot > 0:
            v = int(rng.choice(n, p=dsq / tot))
        else:
            v = int(rng.integers(n))
        idx.append(v)
        dsq = np.minimum(dsq, ((points - points[v]) ** 2).sum(axis=1))
    return points[idx].copy()


def kmeans(instance: ClusteringInstance, seed: int = 0) -> VanillaSolution:
    """k-means++ seeding plus Lloyd iterations, snapped back onto F.

    Lloyd runs in continuous centroid space until the relative SSE
    improvement drops below ``LLOYD_REL_TOL`` (or ``LLOYD_MAX_ITERS``).
    Final centroids are snapped to their nearest facilities so the opened
    set lies in F; collapsed duplicates are refilled by farthest-point
    additions, then the nearest assignment is recomputed.
    """
    if not instance.is_euclidean:
        raise ValueError("k-means requires a coordinate (Euclidean) instance")
    k = instance.k
    pts = instance.points
    rng = _rng(seed, 2)
    centroids = _kmeanspp_seed(pts, k, rng)

    costs: list[float] = []
    prev = math.inf
    for _ in range(LLOYD_MAX_ITERS):
        dsq = _dsq_to_centroids(pts, centroids)
        labels = np.argmin(dsq, axis=1)
        sse = float(dsq[np.arange(len(pts)), labels].sum())
        costs.append(sse)
        if prev - sse <= LLOYD_REL_TOL * max(prev, 1e-30) and len(costs) > 1:
            break
        prev = sse
        for j in range(k):
            mask = labels == j
            if mask.any():
                centroids[j] = pts[mask].mean(axis=0)
            else:
                # re-seed an empty centroid at the point farthest from its center
                far = int(np.argmax(dsq[np.arange(len(pts)), labels]))
                centroids[j] = pts[far]

    # snap centroids onto the facility set, dedupe, refill if collapsed
    fac = pts if instance.facility_points is None else instance.facility_points
    diff = centroids[:, None, :] - fac[None, :, :]
    snapped = np.argmin(np.einsum("kmd,kmd->km", diff, diff), axis=1)
    centers = _farthest_point_fill(instance, list(dict.fromkeys(int(f) for f in snapped)))
    phi = nearest_assignment(instance, centers)
    return VanillaSolution(
        assignment=Assignment(instance, tuple(centers), phi),
        solver_id=SolverId.K_MEANS_LLOYD, seed=seed,
        lloyd_costs=tuple(costs),
    )


def solve_vanilla(instance: ClusteringInstance, solver_id: SolverId,
                  seed: int = 0) -> VanillaSolution:
    if solver_id is SolverId.K_CENTER_GONZALEZ:
        return gonzalez_k_center(instance, seed)
    if solver_id is SolverId.K_MEDIAN_LOCAL_SEARCH:
        return local_search_k_median(instance, seed)
    if solver_id is SolverId.K_MEANS_LLOYD:
        return kmeans(instance, seed)
    raise ValueError(f"unknown solver {solver_id!r}")


def default_solver_for(p: float) -> SolverId:
    """Conventional pairing of norm and solver: 1 -> median, 2 -> means, inf -> center."""
    if math.isinf(p):
        return SolverId.K_CENTER_GONZALEZ
    if p == 1:
        return SolverId.K_MEDIAN_LOCAL_SEARCH
    return SolverId.K_MEANS_LLOYD
