import itertools
import math

import numpy as np
import pytest

from faircluster import ClusteringInstance
from faircluster.instance import nearest_assignment
from faircluster.vanilla import (
    _farthest_point_fill,
    gonzalez_k_center,
    kmeans,
    local_search_k_median,
)

from util import random_euclidean_instance, slow_vanilla_opt


def line_fc(xs, k, p):
    pts = np.asarray(xs, dtype=float)[:, None]
    return ClusteringInstance.from_points(pts, [set(range(len(xs)))], k=k, p=p)


class TestGonzalez:
    def test_k_equals_n_zero_cost(self):
        inst = line_fc([0, 3, 7, 11], k=4, p=math.inf)
        sol = gonzalez_k_center(inst, seed=5)
        assert sol.cost_p == 0.0
        assert len(sol.opened) == 4

    def test_collinear_from_start_zero(self):
        inst = line_fc([0, 1, 10], k=2, p=math.inf)
        centers = _farthest_point_fill(inst, [0])
        assert sorted(centers) == [0, 2]  # the points at coordinates 0 and 10
        phi = nearest_assignment(inst, centers)
        dmax = max(inst.dist_cf[v, phi[v]] for v in range(3))
        # exhaustive check over all 2-subsets confirms the optimum is 1
        opt = min(max(min(abs(x - c1), abs(x - c2)) for x in [0, 1, 10])
                  for c1, c2 in itertools.combinations([0, 1, 10], 2))
        assert opt == 1
        assert dmax == opt

    def test_two_approx_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 4))
            pts = rng.random((n, 2)) * 10
            inst = ClusteringInstance.from_points(pts, [set(range(n))], k=k, p=math.inf)
            sol = gonzalez_k_center(inst, seed=int(rng.integers(1000)))
            assert sol.cost_p <= 2.0 * slow_vanilla_opt(inst) + 1e-12

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k=5"):
            line_fc([0, 1], k=5, p=math.inf)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        inst = random_euclidean_instance(rng, n=8, m=4, k=2, p=math.inf)
        a = gonzalez_k_center(inst, seed=123)
        b = gonzalez_k_center(inst, seed=123)
        assert a.opened == b.opened and np.array_equal(a.phi, b.phi)


class TestLocalSearch:
    def test_k_equals_m_opens_everything(self):
        rng = np.random.default_rng(1)
        inst = random_euclidean_instance(rng, n=7, m=4, k=4, p=1.0)
        sol = local_search_k_median(inst, seed=0)
        assert sorted(sol.opened) == [0, 1, 2, 3]
        np.testing.assert_array_equal(sol.phi, nearest_assignment(inst, sol.opened))

    def test_five_approx_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            inst = random_euclidean_instance(rng, n=int(rng.integers(5, 9)),
                                             m=int(rng.integers(3, 6)),
                                             k=int(rng.integers(1, 4)), p=1.0)
            sol = local_search_k_median(inst, seed=int(rng.integers(1000)))
            assert sol.cost_p <= 5.0 * slow_vanilla_opt(inst) + 1e-9

    def test_no_improving_swap_at_convergence(self):
        rng = np.random.default_rng(9)
        inst = random_euclidean_instance(rng, n=9, m=5, k=2, p=1.0)
        sol = local_search_k_median(inst, seed=4, trials=1)
        centers = list(sol.opened)
        base = inst.dist_cf[:, centers].min(axis=1).sum()
        threshold = 1.0 - 1e-3 / inst.k
        for f_out in centers:
            for f_in in range(inst.m):
                if f_in in centers:
                    continue
                trial = [f_in if f == f_out else f for f in centers]
                cost = inst.dist_cf[:, trial].min(axis=1).sum()
                assert cost >= threshold * base - 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(17)
        inst = random_euclidean_instance(rng, n=10, m=5, k=3, p=1.0)
        a = local_search_k_median(inst, seed=42)
        b = local_search_k_median(inst, seed=42)
        assert a.opened == b.opened and np.array_equal(a.phi, b.phi)

    def test_nearest_assignment_tie_breaks_low_index(self):
        # two facilities equidistant from the middle client
        pts = np.array([[0.0], [5.0], [10.0]])
        fac = np.array([[0.0], [10.0]])
        inst = ClusteringInstance.from_points(pts, [{0, 1, 2}], k=2, p=1,
                                              facility_points=fac)
        phi = nearest_assignment(inst, [0, 1])
        assert phi[1] == 0  # tie at distance 5 goes to the lower facility index


class TestKMeans:
    def test_k_equals_n_zero_cost(self):
        inst = line_fc([0, 4, 9, 13], k=4, p=2.0)
        sol = kmeans(inst, seed=3)
        assert sol.cost_p == 0.0

    def test_two_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0], [101.0, 0.0]])
        inst = ClusteringInstance.from_points(pts, [{0, 1, 2, 3}], k=2, p=2.0)
        sol = kmeans(inst, seed=8)
        clusters = {tuple(sorted(np.flatnonzero(sol.phi == f))) for f in sol.opened}
        assert clusters == {(0, 1), (2, 3)}
        # independent check: best candidate pair of centers over all 2-subsets
        expected = slow_vanilla_opt(inst, p=2.0, k=2)
        assert sol.cost_p == pytest.approx(expected)

    def test_lloyd_costs_monotone(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            inst = random_euclidean_instance(rng, n=20, m=20, k=3, p=2.0)
            inst = ClusteringInstance.from_points(
                rng.random((20, 2)) * 10, [set(range(20))], k=3, p=2.0)
            sol = kmeans(inst, seed=int(rng.integers(100)))
            costs = sol.lloyd_costs
            assert costs is not None and len(costs) >= 1
            for a, b in zip(costs, costs[1:]):
                assert b <= a + 1e-9 * max(1.0, a)

    def test_non_euclidean_rejected(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = ClusteringInstance.from_distance_matrix(d, [{0, 1}], k=1, p=2.0)
        with pytest.raises(ValueError, match="Euclidean"):
            kmeans(inst)

    def test_snap_keeps_centers_in_facility_set(self):
        rng = np.random.default_rng(5)
        inst = random_euclidean_instance(rng, n=12, m=4, k=3, p=2.0)
        sol = kmeans(inst, seed=2)
        assert all(0 <= f < inst.m for f in sol.opened)
        assert len(sol.opened) == 3

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        inst = random_euclidean_instance(rng, n=15, m=15, k=3, p=2.0)
        a = kmeans(inst, seed=77)
        b = kmeans(inst, seed=77)
        assert a.opened == b.opened and np.array_equal(a.phi, b.phi)


def test_all_solvers_never_beat_bruteforce():
    rng = np.random.default_rng(30)
    for _ in range(10):
        inst = random_euclidean_instance(rng, n=7, m=4, k=2)
        opt = slow_vanilla_opt(inst)
        for build in (gonzalez_k_center, local_search_k_median):
            assert build(inst, seed=1).cost_p >= opt - 1e-9
        if inst.is_euclidean:
            assert kmeans(inst, seed=1).cost_p >= opt - 1e-9
