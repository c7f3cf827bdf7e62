"""Seeded stress and metamorphic slices of the fair pipeline.

The degenerate-input slice runs vanilla + fair stage on inputs that stress
the numerics: lattice points (distance ties), duplicated and identical
points, extreme coordinate scales, overlapping and skewed groups, delta = 0.
Every cell must finish without an exception and keep the paper's hard bound,
additive violation <= 4 Delta + 3.

The scale slice checks power-of-two scale equivariance: multiplying every
coordinate by 2^j is exact in floating point, so the pipeline must return the
same centers and assignment, a cost exactly 2^j times as large, and an LP
objective exactly 2^(jp) times as large (the radius guess 2^j times for
p = inf). A change that breaks it has changed the numerics, for example by an
absolute tolerance or float32 distances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from faircluster import ClusteringInstance, delta_to_profile, fair_clustering
from faircluster.datasets import synthetic_rows
from faircluster.vanilla import default_solver_for, solve_vanilla

LAYOUTS = ("lattice", "half duplicated", "identical")
SCALES = (2.0**-40, 1e-7, 3.3e5, 2.0**40)


def _points(rng, layout: str, n: int) -> np.ndarray:
    if layout == "lattice":
        side = int(rng.integers(2, 5))
        return rng.integers(0, side, size=(n, 2)).astype(float)
    if layout == "half duplicated":
        base = rng.integers(0, 50, size=(n - n // 2, 2)).astype(float)
        return np.concatenate([base, base[rng.integers(0, len(base), size=n // 2)]])
    return np.full((n, 2), 3.0)


def _groups(rng, n: int, overlap: int, skewed: bool) -> list[set[int]]:
    """``overlap`` attributes, each a partition of the clients into 2 or 3
    nonempty groups, so every client lies in exactly Delta = overlap groups.
    A skewed attribute puts a single client in its first group."""
    groups = []
    for a in range(overlap):
        values = int(rng.integers(2, 4))
        labels = np.concatenate([np.arange(values), rng.integers(0, values, size=n - values)])
        rng.shuffle(labels)
        if skewed and a == 0:
            labels = np.where(labels == 0, 1, labels)
            labels[rng.choice(np.flatnonzero(labels == 1))] = 0
        groups += [set(np.flatnonzero(labels == g).tolist()) for g in range(values)]
    return groups


def _stress_cells(seed: int = 2026, passes: int = 9):
    """passes x every (layout, scale) pair, the other knobs drawn at random."""
    rng = np.random.default_rng(seed)
    for _ in range(passes):
        for layout in LAYOUTS:
            for scale in SCALES:
                n = int(rng.integers(8, 25))
                overlap = int(rng.integers(1, 5))
                p = [1.0, 2.0, math.inf][int(rng.integers(3))]
                inst = ClusteringInstance.from_points(
                    _points(rng, layout, n) * scale,
                    _groups(rng, n, overlap, skewed=bool(rng.integers(2))),
                    k=int(rng.integers(1, 7)), p=p)
                delta = float(rng.choice([0.0, 0.05, 0.2]))
                yield f"{layout} x{scale:g} n={n} Delta={overlap} p={p} k={inst.k} delta={delta}", \
                    inst, delta


def test_degenerate_input_slice():
    failures, cells = [], 0
    for seed, (label, inst, delta) in enumerate(_stress_cells()):
        cells += 1
        try:
            vanilla = solve_vanilla(inst, default_solver_for(inst.p), seed=seed)
            res = fair_clustering(vanilla, delta_to_profile(inst, delta))
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if res.lambda_observed > 4 * inst.delta + 3 + 1e-9:
            failures.append(f"{label}: lambda {res.lambda_observed} > 4 Delta + 3")
    assert cells == 108
    assert failures == []


@pytest.fixture(scope="module")
def synthetic_60():
    rows = synthetic_rows(n=60, seed=7)
    points = np.array([(x, y) for x, y, _, _ in rows])
    groups = [{i for i, r in enumerate(rows) if r[col] == value}
              for col, value in ((2, "a"), (2, "b"), (3, "yes"), (3, "no"))]
    return points, groups


@pytest.mark.parametrize("j", [-30, -3, 5, 40])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_power_of_two_scale_equivariance(synthetic_60, p, j):
    points, groups = synthetic_60

    def run(coords):
        inst = ClusteringInstance.from_points(coords, groups, k=5, p=p)
        vanilla = solve_vanilla(inst, default_solver_for(p), seed=7)
        return fair_clustering(vanilla, delta_to_profile(inst, 0.2))

    base, scaled = run(points), run(points * 2.0**j)
    assert scaled.vanilla.opened == base.vanilla.opened
    assert scaled.solution.opened == base.solution.opened
    assert np.array_equal(scaled.solution.phi, base.solution.phi)
    assert scaled.solution.cost_p == base.solution.cost_p * 2.0**j
    if math.isinf(p):
        assert scaled.fair.guess == base.fair.guess * 2.0**j
    else:
        assert scaled.fair.initial_lp_objective == base.fair.initial_lp_objective * 2.0 ** (j * p)
