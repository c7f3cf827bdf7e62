"""Core data model: clustering instances, fairness profiles, assignments, metrics.

Clients are indexed 0..n-1 and facilities 0..m-1 in separate index spaces.
An instance is either coordinate-based (Euclidean) or carries an explicit
distance matrix over the union of clients and facilities. All types are
immutable after construction; every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

# Distance-matrix sanity checks use this tolerance; triangle validation is
# O(N^3) and therefore skipped by default above this many points.
METRIC_TOL = 1e-9
TRIANGLE_CHECK_MAX_POINTS = 500


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _validate_distance_matrix(dmat: np.ndarray, check_triangle: bool) -> None:
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {dmat.shape}")
    if not np.all(np.isfinite(dmat)):
        raise ValueError("distance matrix contains non-finite entries")
    if np.any(dmat < -METRIC_TOL):
        raise ValueError("distance matrix has negative entries")
    if np.any(np.abs(dmat - dmat.T) > METRIC_TOL):
        raise ValueError("distance matrix is not symmetric")
    if np.any(np.abs(np.diag(dmat)) > METRIC_TOL):
        raise ValueError("distance matrix has nonzero diagonal")
    if check_triangle:
        for j in range(dmat.shape[0]):
            slack = dmat[:, j, None] + dmat[None, j, :] - dmat
            if slack.min() < -METRIC_TOL:
                u, w = np.unravel_index(np.argmin(slack), slack.shape)
                raise ValueError(
                    f"triangle inequality violated: d({u},{w}) > d({u},{j}) + d({j},{w})"
                )


# cached properties of ClusteringInstance that do not depend on k or p
_K_P_FREE = ("membership", "delta", "group_ratios", "dist_cf", "dist_ff")


@dataclass(frozen=True)
class ClusteringInstance:
    """A (k,p)-clustering instance with protected groups.

    ``groups`` holds client-index sets; groups may overlap. ``p`` is the norm
    selector: any finite real >= 1, or ``math.inf`` for the bottleneck
    (k-center) objective.
    """

    k: int
    p: float
    groups: tuple[frozenset[int], ...]
    points: np.ndarray | None = None            # (n, d) client coordinates
    facility_points: np.ndarray | None = None   # (m, d); None => F = C
    dmat: np.ndarray | None = None              # explicit matrix over C u F
    client_indices: np.ndarray | None = None    # rows of dmat that are clients
    facility_indices: np.ndarray | None = None  # rows of dmat that are facilities

    def __post_init__(self):
        if (self.points is None) == (self.dmat is None):
            raise ValueError("exactly one of points / dmat must be given")
        n, m = self.n, self.m
        if n == 0 or m == 0:
            raise ValueError("instance needs at least one client and one facility")
        if not (1 <= self.k <= m):
            raise ValueError(f"k={self.k} must be in [1, |F|={m}]")
        if not (self.p >= 1):
            raise ValueError(f"norm selector p={self.p} must be >= 1 or infinity")
        if len(self.groups) == 0:
            raise ValueError("at least one protected group is required")
        for i, g in enumerate(self.groups):
            if len(g) == 0:
                raise ValueError(f"group {i} is empty")
            if not all(0 <= v < n for v in g):
                raise ValueError(f"group {i} references clients outside [0, {n})")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_points(cls, points, groups, k, p, facility_points=None) -> "ClusteringInstance":
        """Euclidean instance; facilities default to the client locations (F = C)."""
        pts = _frozen_array(points)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D coordinate array")
        fac = None if facility_points is None else _frozen_array(facility_points)
        if fac is not None and (fac.ndim != 2 or fac.shape[1] != pts.shape[1]):
            raise ValueError("facility coordinates have mismatched dimension")
        for name, coords in (("points", pts), ("facility_points", fac)):
            if coords is None:
                continue
            bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
            if bad.size:
                raise ValueError(f"{name} row {bad[0]} has a non-finite coordinate: "
                                 f"{coords[bad[0]].tolist()}")
        return cls(k=k, p=float(p), groups=tuple(frozenset(g) for g in groups),
                   points=pts, facility_points=fac)

    @classmethod
    def from_distance_matrix(cls, dmat, groups, k, p, client_indices=None,
                             facility_indices=None, validate=None) -> "ClusteringInstance":
        """Instance over an explicit distance matrix.

        ``client_indices`` / ``facility_indices`` select the rows of ``dmat``
        playing each role (default: all rows for both, i.e. F = C).
        ``validate=None`` runs the O(N^3) triangle check only for matrices of
        at most ``TRIANGLE_CHECK_MAX_POINTS`` points.
        """
        d = _frozen_array(dmat)
        if validate is None:
            validate = d.shape[0] <= TRIANGLE_CHECK_MAX_POINTS
        _validate_distance_matrix(d, check_triangle=validate)
        ci = np.arange(d.shape[0]) if client_indices is None else np.asarray(client_indices, dtype=int)
        fi = np.arange(d.shape[0]) if facility_indices is None else np.asarray(facility_indices, dtype=int)
        return cls(k=k, p=float(p), groups=tuple(frozenset(g) for g in groups),
                   dmat=d, client_indices=_frozen_array(ci, int), facility_indices=_frozen_array(fi, int))

    def with_k(self, k: int) -> "ClusteringInstance":
        return self._carry(replace(self, k=k))

    def with_p(self, p: float) -> "ClusteringInstance":
        return self._carry(replace(self, p=float(p)))

    def _carry(self, other: "ClusteringInstance") -> "ClusteringInstance":
        """Hand ``other`` the cached arrays already computed here; none of
        them depends on k or p, so a grid over k shares one distance matrix."""
        for name in _K_P_FREE:
            if name in self.__dict__:
                other.__dict__[name] = self.__dict__[name]
        return other

    # -- basic shape --------------------------------------------------------

    @property
    def is_euclidean(self) -> bool:
        return self.points is not None

    @property
    def n(self) -> int:
        if self.points is not None:
            return self.points.shape[0]
        return len(self.client_indices)

    @property
    def m(self) -> int:
        if self.points is not None:
            return self.n if self.facility_points is None else self.facility_points.shape[0]
        return len(self.facility_indices)

    @property
    def facilities_are_clients(self) -> bool:
        if self.points is not None:
            return self.facility_points is None
        return np.array_equal(self.client_indices, self.facility_indices)

    @property
    def ell(self) -> int:
        return len(self.groups)

    @cached_property
    def membership(self) -> np.ndarray:
        """Boolean (n, ell) matrix: client v belongs to group i."""
        mem = np.zeros((self.n, self.ell), dtype=bool)
        for i, g in enumerate(self.groups):
            mem[list(g), i] = True
        mem.setflags(write=False)
        return mem

    @cached_property
    def delta(self) -> int:
        """Max number of groups any single client belongs to (>= 1)."""
        return int(self.membership.sum(axis=1).max())

    @cached_property
    def group_ratios(self) -> np.ndarray:
        """r_i = |C_i| / |C| per group."""
        r = self.membership.sum(axis=0) / self.n
        r.setflags(write=False)
        return r

    # -- distances ----------------------------------------------------------

    @cached_property
    def dist_cf(self) -> np.ndarray:
        """(n, m) client-to-facility distances. O(n*m) memory; desk scale."""
        if self.points is not None:
            fac = self.points if self.facility_points is None else self.facility_points
            d = cdist(self.points, fac)
        else:
            d = self.dmat[np.ix_(self.client_indices, self.facility_indices)]
        d = np.ascontiguousarray(d)
        d.setflags(write=False)
        return d

    @cached_property
    def dist_ff(self) -> np.ndarray:
        """(m, m) facility-to-facility distances."""
        if self.points is not None:
            fac = self.points if self.facility_points is None else self.facility_points
            d = cdist(fac, fac)
        else:
            d = self.dmat[np.ix_(self.facility_indices, self.facility_indices)]
        d = np.ascontiguousarray(d)
        d.setflags(write=False)
        return d


@dataclass(frozen=True)
class FairnessProfile:
    """Per-group fairness vectors: beta_i <= ratio of group i in any cluster <= alpha_i."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have the same length")
        for i, (a, b) in enumerate(zip(self.alpha, self.beta)):
            if not (0.0 <= b <= a <= 1.0):
                raise ValueError(
                    f"group {i}: need 0 <= beta ({b}) <= alpha ({a}) <= 1"
                )

    def __len__(self) -> int:
        return len(self.alpha)

    @classmethod
    def vacuous(cls, ell: int) -> "FairnessProfile":
        """alpha = 1, beta = 0: no effective constraint."""
        return cls(alpha=(1.0,) * ell, beta=(0.0,) * ell)

    @property
    def is_vacuous(self) -> bool:
        return all(a >= 1.0 for a in self.alpha) and all(b <= 0.0 for b in self.beta)


def delta_to_profile(instance: ClusteringInstance, delta: float) -> FairnessProfile:
    """Single-knob profile: beta_i = r_i (1 - delta), alpha_i = min(1, r_i / (1 - delta)).

    delta = 0 pins every cluster to the dataset ratios; delta must be < 1
    (callers wanting no constraints pass ``FairnessProfile.vacuous`` instead).
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta={delta} must lie in [0, 1)")
    r = instance.group_ratios
    beta = tuple(float(ri * (1.0 - delta)) for ri in r)
    alpha = tuple(min(1.0, float(ri / (1.0 - delta))) for ri in r)
    return FairnessProfile(alpha=alpha, beta=beta)


@dataclass(frozen=True)
class Assignment:
    """A total assignment of clients to opened facilities.

    ``phi`` is read-only, so ``cost_p`` and ``group_counts`` are computed
    once, on first access, and can never drift out of sync with it.
    """

    instance: ClusteringInstance
    opened: tuple[int, ...]
    phi: np.ndarray = field(repr=False)

    def __post_init__(self):
        opened = tuple(sorted(dict.fromkeys(self.opened)))
        object.__setattr__(self, "opened", opened)
        if not opened:
            raise ValueError("opened facility set is empty")
        if len(opened) > self.instance.k:
            raise ValueError(f"|S|={len(opened)} exceeds k={self.instance.k}")
        if not all(0 <= f < self.instance.m for f in opened):
            raise ValueError("opened contains an unknown facility index")
        phi = _frozen_array(self.phi, int)
        object.__setattr__(self, "phi", phi)
        if phi.shape != (self.instance.n,):
            raise ValueError("phi must assign every client")
        if not np.isin(phi, np.asarray(opened)).all():
            raise ValueError("phi assigns a client to a facility outside opened")

    @cached_property
    def cost_p(self) -> float:
        """l_p objective in the instance norm: (sum_v d(v, phi(v))^p)^(1/p),
        or the max for p = inf. Finite p sums through math.fsum (exact
        compensated summation)."""
        p = self.instance.p
        d = self.instance.dist_cf[np.arange(self.instance.n), self.phi]
        if math.isinf(p):
            return float(d.max())
        return float(math.fsum(d**p) ** (1.0 / p))

    def clusters(self) -> dict[int, np.ndarray]:
        """facility -> array of assigned client indices (opened facilities only)."""
        return {f: np.flatnonzero(self.phi == f) for f in self.opened}

    @cached_property
    def group_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per opened facility, in ``opened`` order: the cluster sizes (|S|,)
        and the per-group member counts (|S|, ell). Empty clusters count 0.
        Built once per assignment; both arrays are read-only."""
        s, ell = len(self.opened), self.instance.ell
        pos = np.searchsorted(self.opened, self.phi)
        v, i = np.nonzero(self.instance.membership)
        counts = np.bincount(pos[v] * ell + i, minlength=s * ell).reshape(s, ell)
        sizes = np.bincount(pos, minlength=s)
        sizes.setflags(write=False)
        counts.setflags(write=False)
        return sizes, counts

    def cluster_sizes(self) -> dict[int, int]:
        return dict(zip(self.opened, self.group_counts[0].tolist()))


def nearest_assignment(instance: ClusteringInstance, opened) -> np.ndarray:
    """Assign every client to its nearest opened facility, ties to the lowest index."""
    opened = np.asarray(sorted(opened), dtype=int)
    sub = instance.dist_cf[:, opened]
    return opened[np.argmin(sub, axis=1)]


def bottleneck_search(d: np.ndarray, probe):
    """Smallest entry r of the (clients x centers) distance matrix ``d`` at
    which ``probe(r)`` returns a witness rather than None; ``probe`` must be
    monotone in r.

    Binary search over the distinct entries of ``d``. Radii below
    max_v min_j d(v, j) strand a client and are never probed; the largest
    entry is probed only when nothing smaller succeeds. Returns
    (radius, witness), the witness None only when even that probe fails.
    """
    values = np.unique(d)
    lo = int(np.searchsorted(values, d.min(axis=1).max()))
    hi = len(values) - 1
    witness = None
    while lo < hi:
        mid = (lo + hi) // 2
        found = probe(float(values[mid]))
        if found is None:
            lo = mid + 1
        else:
            witness, hi = found, mid
    if witness is None:
        witness = probe(float(values[hi]))
    return float(values[hi]), witness


def balance(instance: ClusteringInstance, assignment: Assignment) -> dict[int, float]:
    """Per-cluster balance in [0, 1]; 1 means exact proportional representation.

    balance(f) = min_i min(r_i / r_i(f), r_i(f) / r_i) over nonempty clusters;
    a cluster missing a represented group entirely (r_i(f) = 0 with r_i > 0)
    scores 0. Empty clusters are skipped.
    """
    sizes, counts = assignment.group_counts
    live = sizes > 0
    share = counts[live] / sizes[live, None]
    r = instance.group_ratios
    with np.errstate(divide="ignore"):
        b = np.minimum(r / share, share / r).min(axis=1, initial=1.0)
    b[(share == 0.0).any(axis=1)] = 0.0
    opened = [f for f, keep in zip(assignment.opened, live) if keep]
    return dict(zip(opened, b.tolist()))


def additive_violation(instance: ClusteringInstance, profile: FairnessProfile,
                       assignment: Assignment) -> float:
    """Smallest lambda >= 0 such that every (cluster, group) pair satisfies
    beta_i |C(f)| - lambda <= |C_i(f)| <= alpha_i |C(f)| + lambda.

    Empty clusters satisfy both sides vacuously.
    """
    if len(profile) != instance.ell:
        raise ValueError("profile length does not match number of groups")
    sizes, counts = assignment.group_counts
    over = counts - np.asarray(profile.alpha) * sizes[:, None]
    under = np.asarray(profile.beta) * sizes[:, None] - counts
    return float(max(0.0, over.max(), under.max()))


@dataclass(frozen=True)
class FairnessReport:
    """Per-cluster fairness summary of one fair-clustering run."""

    n: int
    group_sizes: tuple[int, ...]
    cluster_sizes: dict[int, int]
    group_counts: dict[int, tuple[int, ...]]   # facility -> per-group counts
    balance: dict[int, float]
    lambda_max: float
    cost_of_fairness: float | None             # fair cost / vanilla cost; None if vanilla cost 0 and fair > 0
    timings_ms: dict[str, float]

    def __post_init__(self):
        if sum(self.cluster_sizes.values()) != self.n:
            raise ValueError("cluster sizes do not sum to n")
        ell = len(self.group_sizes)
        totals = [0] * ell
        for counts in self.group_counts.values():
            for i, c in enumerate(counts):
                totals[i] += c
        if tuple(totals) != self.group_sizes:
            raise ValueError("per-group cluster counts do not sum to group sizes")


def build_report(instance: ClusteringInstance, profile: FairnessProfile,
                 assignment: Assignment, vanilla_cost: float,
                 timings_ms: dict[str, float] | None = None) -> FairnessReport:
    fair_cost = assignment.cost_p
    if vanilla_cost > 0:
        cof = fair_cost / vanilla_cost
    else:
        cof = 1.0 if fair_cost == 0 else None
    sizes, counts = assignment.group_counts
    return FairnessReport(
        n=instance.n,
        group_sizes=tuple(int(s) for s in instance.membership.sum(axis=0)),
        cluster_sizes=dict(zip(assignment.opened, sizes.tolist())),
        group_counts=dict(zip(assignment.opened, map(tuple, counts.tolist()))),
        balance=balance(instance, assignment),
        lambda_max=additive_violation(instance, profile, assignment),
        cost_of_fairness=cof,
        timings_ms=dict(timings_ms or {}),
    )
