import itertools
import math

import numpy as np
import pytest

from faircluster import ClusteringInstance, LbInfeasibleError, lb_clustering
import faircluster.lower_bounded as lower_bounded
from faircluster.lower_bounded import _bottleneck_lb_matching, min_cost_lb_matching
from faircluster.vanilla import SolverId

from util import (
    make_groups,
    random_euclidean_instance,
    random_integer_metric_instance,
    slow_cost,
    slow_lower_bounded_opt,
    slow_vanilla_opt,
)


def slow_lb_matching_opt(instance, T, L, p):
    """Independent oracle: best assignment onto exactly the facilities of T
    with every cluster at least L."""
    best = math.inf
    for phi in itertools.product(T, repeat=instance.n):
        counts = {f: 0 for f in T}
        for f in phi:
            counts[f] += 1
        if any(c < L for c in counts.values()):
            continue
        d = [instance.dist_cf[v, phi[v]] for v in range(instance.n)]
        best = min(best, max(d) if math.isinf(p) else sum(x**p for x in d))
    return best


def _line_instance(p=1.0):
    # clients at 0, 1, 2, 10 and facilities at 0 and 10
    pts = np.array([[0.0], [1.0], [2.0], [10.0]])
    fac = np.array([[0.0], [10.0]])
    return ClusteringInstance.from_points(pts, [{0, 1, 2, 3}], k=2, p=p,
                                          facility_points=fac)


class TestFlowNetwork:
    """The lower-bounded b-matching read as a transshipment: every client
    ships one unit, every facility of T must receive at least L."""

    def test_simple_transshipment(self):
        # L=1 does not bind: each client routes to its nearest facility
        phi, cost = min_cost_lb_matching(_line_instance(), [0, 1], L=1)
        assert phi.tolist() == [0, 0, 0, 1] and cost == 3.0

    def test_lower_bound_forces_expensive_arc(self):
        # with L=2 the far facility must take the client at 2 (cost 8)
        # although the facility at 0 is nearer
        phi, cost = min_cost_lb_matching(_line_instance(), [0, 1], L=2)
        assert phi.tolist() == [0, 0, 1, 1] and cost == 9.0

    def test_infeasible_returns_none(self):
        # L*|T| = 6 > n = 4: no matching exists, for p finite or infinite
        assert min_cost_lb_matching(_line_instance(), [0, 1], L=3) is None
        assert _bottleneck_lb_matching(_line_instance(math.inf), [0, 1], L=3) is None


class TestMinCostLbMatching:
    def test_L1_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            inst = random_euclidean_instance(rng, n=6, m=4, k=3,
                                             p=float(rng.choice([1.0, 2.0])))
            T = sorted(rng.choice(inst.m, size=2, replace=False).tolist())
            got = min_cost_lb_matching(inst, T, L=1)
            assert got is not None
            phi, cost = got
            assert cost == pytest.approx(slow_lb_matching_opt(inst, T, 1, inst.p), rel=1e-9)

    def test_forced_single_facility(self):
        rng = np.random.default_rng(3)
        inst = random_euclidean_instance(rng, n=6, m=3, k=1, p=2.0)
        phi, cost = min_cost_lb_matching(inst, [1], L=6)
        assert set(phi.tolist()) == {1}
        assert cost == pytest.approx(float((inst.dist_cf[:, 1] ** 2).sum()))

    def test_counting_infeasibility(self):
        rng = np.random.default_rng(4)
        inst = random_euclidean_instance(rng, n=5, m=3, k=3, p=1.0)
        assert min_cost_lb_matching(inst, [0, 1, 2], L=2) is None

    def test_exact_on_integer_metrics(self):
        # integer explicit metrics with p=1: matching and brute force must agree
        # exactly, no tolerance
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst = random_integer_metric_instance(rng, n=6, k=2, p=1.0)
            T = sorted(rng.choice(inst.n, size=2, replace=False).tolist())
            L = int(rng.integers(1, 4))
            got = min_cost_lb_matching(inst, T, L)
            expected = slow_lb_matching_opt(inst, T, L, 1.0)
            if got is None:
                assert math.isinf(expected)
            else:
                assert got[1] == expected  # exact: all costs are small integers

    def test_monotone_in_L(self):
        rng = np.random.default_rng(6)
        inst = random_euclidean_instance(rng, n=8, m=4, k=2, p=1.0)
        T = [0, 1]
        prev = -1.0
        for L in range(1, 5):
            got = min_cost_lb_matching(inst, T, L)
            assert got is not None
            assert got[1] >= prev - 1e-12
            prev = got[1]

    def test_rejects_infinite_p(self):
        rng = np.random.default_rng(7)
        inst = random_euclidean_instance(rng, n=5, m=3, k=2, p=math.inf)
        with pytest.raises(ValueError, match="finite"):
            min_cost_lb_matching(inst, [0], L=1)


class TestLbClustering:
    def test_clusters_meet_floor(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = random_euclidean_instance(rng, n=9, m=4, k=3,
                                             p=float(rng.choice([1.0, 2.0])))
            L = int(rng.integers(1, 4))
            res = lb_clustering(inst, L=L, seed=int(rng.integers(100)))
            assert all(s >= L for s in res.solution.cluster_sizes().values())
            assert res.subsets_evaluated == 2 ** len(res.vanilla.opened) - 1

    def test_cost_within_rho_plus_two(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(10):
            inst = random_euclidean_instance(rng, n=7, m=4, k=2, p=1.0)
            L = int(rng.integers(1, 3))
            res = lb_clustering(inst, L=L, seed=int(rng.integers(100)))
            opt_vnll = slow_vanilla_opt(inst)
            opt_lbnd = slow_lower_bounded_opt(inst, L)
            if opt_vnll <= 0 or math.isinf(opt_lbnd):
                continue
            checked += 1
            rho = res.vanilla.cost_p / opt_vnll
            assert res.solution.cost_p <= (rho + 2.0) * opt_lbnd + 1e-6
        assert checked >= 6

    def test_bottleneck_path(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            inst = random_euclidean_instance(rng, n=7, m=4, k=2, p=math.inf)
            res = lb_clustering(inst, L=2, seed=3)
            sizes = res.solution.cluster_sizes()
            assert all(s >= 2 for s in sizes.values())
            # radius equals the oracle optimum over the same subset
            T = sorted(res.solution.opened)
            oracle = slow_lb_matching_opt(inst, T, 2, math.inf)
            assert res.solution.cost_p == pytest.approx(oracle, rel=1e-12)

    def test_bottleneck_matching_optimal(self):
        rng = np.random.default_rng(11)
        inst = random_euclidean_instance(rng, n=6, m=3, k=2, p=math.inf)
        got = _bottleneck_lb_matching(inst, [0, 1], L=2)
        assert got is not None
        phi, radius = got
        assert radius == pytest.approx(slow_lb_matching_opt(inst, [0, 1], 2, math.inf))

    def test_infeasible_L(self):
        rng = np.random.default_rng(12)
        inst = random_euclidean_instance(rng, n=5, m=3, k=2, p=1.0)
        with pytest.raises(LbInfeasibleError):
            lb_clustering(inst, L=9)

    def test_k_cap(self, monkeypatch):
        # k = 21 is one past SUBSET_ENUMERATION_CAP; the cap is checked
        # before the vanilla solve, so no solve may run
        rng = np.random.default_rng(13)
        inst = random_euclidean_instance(rng, n=24, m=21, k=21, p=1.0)

        def no_solve(*args):
            raise AssertionError("the vanilla solve ran before the cap check")

        monkeypatch.setattr(lower_bounded, "solve_vanilla", no_solve)
        with pytest.raises(ValueError, match="cap 20"):
            lb_clustering(inst, L=1)

    def test_tie_breaks_to_lexicographic_subset(self):
        # symmetric instance: two single-facility subsets with equal cost
        pts = np.array([[0.0], [2.0]])
        fac = np.array([[-1.0], [3.0]])
        inst = ClusteringInstance.from_points(pts, [{0, 1}], k=2, p=1.0,
                                              facility_points=fac)
        res = lb_clustering(inst, L=2, solver_id=SolverId.K_MEDIAN_LOCAL_SEARCH, seed=0)
        # both facilities cost 1+3=4; (0,) wins over (1,) lexicographically
        assert res.solution.opened == (0,)

    def test_L1_never_worse_than_vanilla_assignment(self):
        rng = np.random.default_rng(14)
        inst = random_euclidean_instance(rng, n=8, m=4, k=3, p=1.0)
        res = lb_clustering(inst, L=1, seed=5)
        assert res.solution.cost_p <= res.vanilla.cost_p + 1e-9

    def test_pruning_stops_after_the_first_subset(self):
        # the first subset's cost already lies below every later subset's
        # nearest-center bound, so exactly one of the 15 subsets is solved;
        # a pruning test that waited for bound > 2 * best would solve 6
        inst = random_euclidean_instance(np.random.default_rng(0), n=30, m=8, k=4, p=2.0)
        res = lb_clustering(inst, L=5, seed=0)
        assert (res.subsets_evaluated, res.subsets_solved) == (15, 1)

    def test_validates_L_and_solves(self):
        rng = np.random.default_rng(15)
        inst = random_euclidean_instance(rng, n=8, m=4, k=2, p=1.0)
        res = lb_clustering(inst, L=2, seed=1)
        assert all(s >= 2 for s in res.solution.cluster_sizes().values())
        with pytest.raises(LbInfeasibleError):
            lb_clustering(inst, L=0)
        with pytest.raises(LbInfeasibleError):
            lb_clustering(inst, L=99)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_pruned_enumeration_matches_every_subset(p):
    # solving every subset and taking the least (cost, T) must agree with the
    # bound-pruned search, on duplicated points (distance ties) and tight L
    rng = np.random.default_rng(16)
    pruned = 0
    for trial in range(14):
        n, k = int(rng.integers(12, 25)), int(rng.integers(2, 5))
        pts = rng.integers(0, 6, size=(n, 2)).astype(float)
        if trial % 2 == 0:
            pts[n // 2:] = pts[: n - n // 2]
        inst = ClusteringInstance.from_points(pts, make_groups(rng, n, 1), k=k, p=p)
        L = n // k if trial % 3 == 0 else int(rng.integers(1, n // k + 1))
        res = lb_clustering(inst, L=L, seed=trial)
        best = None
        S = sorted(res.vanilla.opened)
        for T in itertools.chain.from_iterable(
                itertools.combinations(S, size) for size in range(1, len(S) + 1)):
            if math.isinf(p):
                got = _bottleneck_lb_matching(inst, list(T), L)
            else:
                got = min_cost_lb_matching(inst, T, L)
            if got is not None and (best is None or (got[1], T) < best):
                best = (got[1], T)
        assert res.solution.opened == best[1]
        expected = best[0] if math.isinf(p) else best[0] ** (1.0 / p)
        assert res.solution.cost_p == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert 1 <= res.subsets_solved <= res.subsets_evaluated == 2 ** len(S) - 1
        pruned += res.subsets_solved < res.subsets_evaluated
    assert pruned > 0
