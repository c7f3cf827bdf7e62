import itertools
import math

import numpy as np
import pytest

from faircluster import ClusteringInstance
from faircluster.instance import nearest_assignment
from faircluster.vanilla import (
    SWAP_EPS,
    _farthest_point_fill,
    _swap_pass,
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
        # every trial stops at a local optimum, so the best of them is one too
        rng = np.random.default_rng(9)
        inst = random_euclidean_instance(rng, n=9, m=5, k=2, p=1.0)
        sol = local_search_k_median(inst, seed=4)
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


def brute_swap_costs(dist_cf, centers):
    """Cost of every swap, rows by position of f_out, columns by f_in ascending,
    each re-evaluated from scratch over the whole new center set."""
    candidates = [f for f in range(dist_cf.shape[1]) if f not in centers]
    costs = np.empty((len(centers), len(candidates)))
    for pos in range(len(centers)):
        for col, f_in in enumerate(candidates):
            trial = list(centers)
            trial[pos] = f_in
            costs[pos, col] = dist_cf[:, trial].min(axis=1).sum()
    return costs, candidates


class TestSwapPass:
    @staticmethod
    def draws(lattice):
        rng = np.random.default_rng(61 if lattice else 62)
        for _ in range(60):
            n, m = int(rng.integers(1, 14)), int(rng.integers(2, 9))
            k = int(rng.integers(1, m))
            if lattice:
                # few distinct coordinates: duplicate points and many exact ties
                pts = rng.integers(0, 3, size=(n, 2)).astype(float)
                fac = rng.integers(0, 3, size=(m, 2)).astype(float)
            else:
                pts, fac = rng.random((n, 2)), rng.random((m, 2))
            inst = ClusteringInstance.from_points(pts, [set(range(n))], k=k, p=1,
                                                  facility_points=fac)
            centers = [int(f) for f in rng.choice(m, size=k, replace=False)]
            yield inst.dist_cf, centers

    @pytest.mark.parametrize("lattice", [False, True])
    def test_best_swap_matches_brute_force(self, lattice):
        for dist_cf, centers in self.draws(lattice):
            n = dist_cf.shape[0]
            costs, candidates = brute_swap_costs(dist_cf, centers)
            best = costs.min()
            if dist_cf[:, centers].min(axis=1).sum() == 0.0:
                assert _swap_pass(dist_cf, centers, threshold=1.0) is None
                continue
            # accept any swap, so the pass reports its best one
            got = _swap_pass(dist_cf, centers, threshold=math.inf)
            cost, f_out, f_in = got
            tol = n * np.finfo(float).eps * max(best, 1.0)
            assert abs(cost - best) <= tol
            assert f_out in centers and f_in in candidates
            assert abs(costs[centers.index(f_out), candidates.index(f_in)] - best) <= tol

    @pytest.mark.parametrize("lattice", [False, True])
    def test_threshold_decides_between_swap_and_none(self, lattice):
        for dist_cf, centers in self.draws(lattice):
            threshold = 1.0 - SWAP_EPS / len(centers)
            cost = dist_cf[:, centers].min(axis=1).sum()
            best = brute_swap_costs(dist_cf, centers)[0].min()
            if abs(best - threshold * cost) <= 1e-9 * max(cost, 1.0):
                continue  # too close to the threshold to call
            got = _swap_pass(dist_cf, centers, threshold)
            assert (got is None) == (best >= threshold * cost)

    def test_exact_ties_go_to_the_first_row_major_swap(self):
        # integer points on a line: every swap cost is an exact integer sum,
        # so ties are exact and the pick is the first (position of f_out, f_in)
        rng = np.random.default_rng(63)
        tied = 0
        for _ in range(80):
            m = int(rng.integers(3, 9))
            k = int(rng.integers(2, m))
            inst = line_fc(rng.integers(0, 6, size=m), k=k, p=1)
            centers = [int(f) for f in rng.choice(m, size=k, replace=False)]
            costs, candidates = brute_swap_costs(inst.dist_cf, centers)
            if inst.dist_cf[:, centers].min(axis=1).sum() == 0.0:
                continue
            first = np.flatnonzero(costs.ravel() == costs.min())
            tied += len(first) > 1
            pos, col = divmod(int(first[0]), len(candidates))
            assert _swap_pass(inst.dist_cf, centers, threshold=math.inf) == \
                (costs.min(), centers[pos], candidates[col])
        assert tied >= 20

    def test_single_center_and_single_candidate(self):
        inst = line_fc([0, 1, 5, 6], k=1, p=1)
        # k = 1: with no second-nearest center, the swap moves every client
        assert _swap_pass(inst.dist_cf, [0], threshold=1.0) == (10.0, 0, 1)
        # m = k + 1: one candidate; giving up 0 for 1 leaves cost 1, giving up 9 costs 8
        inst3 = line_fc([0, 1, 9], k=2, p=1)
        assert _swap_pass(inst3.dist_cf, [0, 2], threshold=math.inf) == (1.0, 0, 1)

    def test_none_at_a_local_optimum(self):
        # the median of a line is the 1-median; no single swap improves it
        inst = line_fc([0, 1, 2, 3, 10], k=1, p=1)
        assert _swap_pass(inst.dist_cf, [2], threshold=1.0 - SWAP_EPS) is None
        # two well-separated pairs with a center in each: also a local optimum
        inst2 = line_fc([0, 1, 20, 21], k=2, p=1)
        assert _swap_pass(inst2.dist_cf, [0, 2], threshold=1.0 - SWAP_EPS / 2) is None

    def test_no_candidates_returns_none(self):
        inst = line_fc([0, 4], k=2, p=1)
        assert _swap_pass(inst.dist_cf, [0, 1], threshold=math.inf) is None


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
