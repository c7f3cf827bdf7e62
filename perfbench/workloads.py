"""The benchmark's workloads: one per hot layer of the faircluster pipeline.

Each workload is a (k, delta) grid (or one lower-bounded call) over synthetic
Delta=2 data from ``faircluster.datasets.write_synthetic_csv``. Every workload
is dominated by a different layer, so an optimisation of one layer has a
workload that exercises it and others on which the prediction is no change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

COORDINATES = ("x", "y")
ATTRIBUTES = ("sex", "married")
# each record is in exactly one group per attribute
DELTA_OVERLAP = len(ATTRIBUTES)

# Layers that can dominate a workload; wrappers such as ``experiment.run``,
# ``fair.assign`` or ``lb`` contain them and are left out of the comparison.
DOMINANT_CANDIDATES = ("instance.dist.s", "vanilla.s", "fair.build.s", "lp.highs.s",
                       "fair.radius.s", "fair.round.s", "lb.match.s")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    p: float
    n: int
    k_values: tuple[int, ...]
    delta_values: tuple[object, ...] = ()
    L: int | None = None            # set for the lower-bounded workload only
    dominant: str = ""              # layer expected to take the most time
    counters: tuple[str, ...] = ()  # per-layer counters that must be nonzero

    @property
    def is_lb(self) -> bool:
        return self.L is not None

    @property
    def cells(self) -> int:
        return 1 if self.is_lb else len(self.k_values) * len(self.delta_values)

    def scaled(self, n: int, L: int | None = None) -> "Workload":
        """The same grid on ``n`` points (and lower bound ``L``): the self-test's tiny variant."""
        return replace(self, n=n, L=self.L if L is None else L)


_COMMON = ("ingest.rows", "instance.dist.calls", "instance.dist.bytes", "vanilla.calls")
_FAIR = _COMMON + ("experiment.cells", "fair.build.calls", "lp.solve.calls",
                   "lp.highs.calls", "lp.highs.nit", "lp.vars", "lp.rows")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="kmeans-lp",
        why="k-means; one large HiGHS solve per cell and the full n*n distance "
            "matrix dominate, so LP-solve and distance-memory changes show here",
        p=2.0, n=3_000, k_values=(5, 10), delta_values=(0.1, 0.2),
        dominant="lp.highs.s", counters=_FAIR + ("vanilla.lloyd_iters",),
    ),
    Workload(
        name="kcenter-radius",
        why="k-center; a radius search of many small cold feasibility LPs per "
            "cell, so warm-start and LP-rebuild changes show here",
        p=math.inf, n=550, k_values=(5, 10), delta_values=(0.1, 0.2),
        dominant="fair.radius.s",
        counters=_FAIR + ("fair.radius.probes", "lp.feas.calls", "lp.feas.feasible"),
    ),
    Workload(
        name="kmedian-swap",
        why="k-median; single-swap local search dominates and vacuous cells "
            "skip the LP, so local-search changes show here",
        p=1.0, n=600, k_values=(5, 10), delta_values=(0.2, "vacuous"),
        dominant="vanilla.s", counters=_FAIR,
    ),
    Workload(
        name="lb-match",
        why="lower-bounded k-means; the pure-Python min-cost flow over 31 "
            "center subsets dominates, so matching changes show only here",
        p=2.0, n=240, k_values=(5,), L=24,
        dominant="lb.match.s",
        counters=_COMMON + ("lb.subsets", "lb.match.calls", "lb.match.feasible"),
    ),
)}
