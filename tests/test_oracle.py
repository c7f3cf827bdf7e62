import itertools
import math

import numpy as np
import pytest

from faircluster import (
    ClusteringInstance,
    FairnessProfile,
    GuardExceededError,
    almost_fair_lp,
    brute_force_assignment,
    brute_force_fair,
    brute_force_lower_bounded,
    delta_to_profile,
    fair_clustering,
)
from faircluster.instance import nearest_assignment
from faircluster.vanilla import default_solver_for, solve_vanilla

from util import (
    random_euclidean_instance,
    slow_cost,
    slow_fair_assignment_opt,
    slow_lower_bounded_opt,
    slow_vanilla_opt,
    slow_violation,
)


class TestBruteForceFair:
    def test_vacuous_fair_equals_vanilla(self):
        rng = np.random.default_rng(1)
        inst = random_euclidean_instance(rng, n=6, m=3, k=2)
        res = brute_force_fair(inst, FairnessProfile.vacuous(inst.ell))
        assert res.opt_fair == pytest.approx(res.opt_vnll)
        assert res.opt_vnll == pytest.approx(slow_vanilla_opt(inst))

    def test_two_clients_forced_midpoint(self):
        pts = np.array([[0.0], [4.0]])
        fac = np.array([[1.0]])
        inst = ClusteringInstance.from_points(pts, [{0}, {1}], k=1, p=2.0,
                                              facility_points=fac)
        prof = FairnessProfile(alpha=(0.5, 0.5), beta=(0.5, 0.5))
        res = brute_force_fair(inst, prof)
        assert res.opt_fair == pytest.approx(math.hypot(1.0, 3.0))

    def test_double_enumeration_cross_check(self):
        # independent itertools enumeration in a different order
        rng = np.random.default_rng(7)
        for _ in range(6):
            inst = random_euclidean_instance(rng, n=5, m=3, k=2,
                                             p=float(rng.choice([1.0, 2.0])))
            prof = delta_to_profile(inst, 0.3)
            res = brute_force_fair(inst, prof)
            best_any, best_fair = math.inf, math.inf
            for size in (2, 1):  # reversed size order
                for S in reversed(list(itertools.combinations(range(inst.m), size))):
                    for phi in itertools.product(sorted(S, reverse=True), repeat=inst.n):
                        c = slow_cost(inst, S, phi, inst.p)
                        best_any = min(best_any, c)
                        if slow_violation(inst, prof, S, phi) <= 1e-9:
                            best_fair = min(best_fair, c)
            assert res.opt_vnll == pytest.approx(best_any, rel=1e-12)
            assert res.opt_fair == pytest.approx(best_fair, rel=1e-12)

    def test_vnll_never_exceeds_fair(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            inst = random_euclidean_instance(rng, n=6, m=3, k=2)
            res = brute_force_fair(inst, delta_to_profile(inst, 0.1))
            assert res.opt_vnll <= res.opt_fair + 1e-9

    def test_witnesses_are_valid(self):
        rng = np.random.default_rng(4)
        inst = random_euclidean_instance(rng, n=6, m=4, k=2, p=1.0)
        prof = delta_to_profile(inst, 0.5)
        res = brute_force_fair(inst, prof)
        S, phi = res.witness_fair
        assert slow_violation(inst, prof, S, phi) <= 1e-9
        assert slow_cost(inst, S, phi, 1.0) == pytest.approx(res.opt_fair)

    def test_guard(self):
        rng = np.random.default_rng(5)
        inst = random_euclidean_instance(rng, n=12, m=5, k=3)
        with pytest.raises(GuardExceededError, match="guard"):
            brute_force_fair(inst, delta_to_profile(inst, 0.2), max_size_guard=1000)


class TestBruteForceAssignment:
    def test_vacuous_gives_nearest(self):
        rng = np.random.default_rng(6)
        inst = random_euclidean_instance(rng, n=6, m=3, k=2, p=1.0)
        res = brute_force_assignment(inst, [0, 2], FairnessProfile.vacuous(inst.ell))
        phi = nearest_assignment(inst, [0, 2])
        assert res.opt_asgn == pytest.approx(
            slow_cost(inst, [0, 2], phi, 1.0))

    def test_single_facility(self):
        rng = np.random.default_rng(7)
        inst = random_euclidean_instance(rng, n=5, m=3, k=1, p=2.0)
        res = brute_force_assignment(inst, [1], delta_to_profile(inst, 0.2))
        assert res.opt_asgn == pytest.approx(float((inst.dist_cf[:, 1] ** 2).sum()) ** 0.5)

    def test_cross_check_with_lambda_slack(self):
        rng = np.random.default_rng(8)
        for lam in (0.0, 1.0):
            inst = random_euclidean_instance(rng, n=6, m=3, k=2, p=1.0)
            prof = delta_to_profile(inst, 0.2)
            res = brute_force_assignment(inst, [0, 1], prof, lam=lam)
            expected, _ = slow_fair_assignment_opt(inst, [0, 1], prof, p=1.0, lam=lam)
            if math.isinf(expected):
                assert res.fair_infeasible or math.isinf(res.opt_asgn)
            else:
                assert res.opt_asgn == pytest.approx(expected, rel=1e-12)

    def test_slack_never_hurts(self):
        rng = np.random.default_rng(9)
        inst = random_euclidean_instance(rng, n=6, m=3, k=2, p=1.0)
        prof = delta_to_profile(inst, 0.1)
        tight = brute_force_assignment(inst, [0, 1], prof, lam=0.0).opt_asgn
        loose = brute_force_assignment(inst, [0, 1], prof, lam=2.0).opt_asgn
        assert loose <= tight + 1e-12


class TestBruteForceLowerBounded:
    def test_matches_slow_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            inst = random_euclidean_instance(rng, n=6, m=3, k=2, p=1.0)
            L = int(rng.integers(1, 3))
            res = brute_force_lower_bounded(inst, L)
            assert res.opt_lbnd == pytest.approx(slow_lower_bounded_opt(inst, L), rel=1e-12)
            S, phi = res.witness_lbnd
            counts = {f: 0 for f in S}
            for f in phi:
                counts[int(f)] += 1
            assert all(c >= L for c in counts.values())


class TestAlmostFairLp:
    def test_huge_lambda_is_vanilla_relaxation(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            inst = random_euclidean_instance(rng, n=6, m=3, k=2,
                                             p=float(rng.choice([1.0, 2.0])))
            prof = delta_to_profile(inst, 0.1)
            val = almost_fair_lp(inst, prof, lam=float(inst.n))
            assert val <= slow_vanilla_opt(inst) + 1e-7

    def test_k1_zero_lambda_forced(self):
        rng = np.random.default_rng(12)
        inst = random_euclidean_instance(rng, n=6, m=3, k=1, p=2.0)
        prof = delta_to_profile(inst, 0.2)
        val = almost_fair_lp(inst, prof, lam=0.0)
        expected = min(float((inst.dist_cf[:, f] ** 2).sum()) ** 0.5 for f in range(inst.m))
        assert val == pytest.approx(expected, rel=1e-7)

    def test_lower_bounds_slack_bruteforce(self):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(8):
            inst = random_euclidean_instance(rng, n=5, m=3, k=2, p=1.0)
            prof = delta_to_profile(inst, 0.3)
            lam = float(rng.choice([0.0, 1.0]))
            best = math.inf
            for size in range(1, inst.k + 1):
                for S in itertools.combinations(range(inst.m), size):
                    c, _ = slow_fair_assignment_opt(inst, list(S), prof, p=1.0, lam=lam)
                    best = min(best, c)
            if math.isinf(best):
                continue
            checked += 1
            assert almost_fair_lp(inst, prof, lam=lam) <= best + 1e-7
        assert checked >= 4

    def test_lower_bounds_algorithm_cost(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            inst = random_euclidean_instance(rng, n=7, m=4, k=2, p=2.0)
            prof = delta_to_profile(inst, 0.2)
            run = fair_clustering(solve_vanilla(inst, default_solver_for(2.0), seed=1), prof)
            aflp = almost_fair_lp(inst, prof, lam=run.lambda_observed)
            assert aflp <= run.solution.cost_p + 1e-6 * max(1.0, run.solution.cost_p)

    def test_rejects_infinite_p(self):
        rng = np.random.default_rng(15)
        inst = random_euclidean_instance(rng, n=5, m=3, k=2, p=math.inf)
        with pytest.raises(ValueError, match="finite"):
            almost_fair_lp(inst, delta_to_profile(inst, 0.2), lam=0.0)

    def test_full_ordering_chain(self):
        # AFLP(lam) <= best lam-violating assignment on the algorithm's
        # centers <= the algorithm's own cost
        rng = np.random.default_rng(16)
        checked = 0
        for trial in range(8):
            inst = random_euclidean_instance(rng, n=6, m=3, k=2, p=1.0)
            prof = delta_to_profile(inst, 0.2)
            run = fair_clustering(solve_vanilla(inst, default_solver_for(1.0), seed=trial), prof)
            lam = run.lambda_observed
            slack_opt = brute_force_assignment(
                inst, run.solution.opened, prof, lam=lam).opt_asgn
            if math.isinf(slack_opt):
                continue
            checked += 1
            aflp = almost_fair_lp(inst, prof, lam=lam)
            assert aflp <= slack_opt + 1e-7 * max(1.0, slack_opt)
            assert slack_opt <= run.solution.cost_p + 1e-9 * max(1.0, run.solution.cost_p)
        assert checked >= 5
