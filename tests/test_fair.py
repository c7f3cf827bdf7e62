import math
from dataclasses import replace

import numpy as np
import pytest

from faircluster import (
    Assignment,
    ClusteringInstance,
    FairAssignmentProblem,
    FairnessInfeasibleError,
    FairnessProfile,
    SolverError,
    delta_to_profile,
    fair_assignment,
    fair_clustering,
)
import faircluster.fair as fair_module
from faircluster.fair import (
    build_fair_feasibility_lp,
    build_fair_lp,
    fair_assign_k_center,
    iterative_round,
)
from faircluster.instance import additive_violation, lp_norm_cost, nearest_assignment
from faircluster.lp import LpSolution, LpStatus, check_feasible, solve_lp
from faircluster.vanilla import SolverId, default_solver_for, solve_vanilla

from util import (
    random_euclidean_instance,
    slow_cost,
    slow_fair_assignment_opt,
    slow_vanilla_opt,
)


def fixed_instance(p=1.0, delta_overlap=1, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return random_euclidean_instance(rng, p=p, delta_overlap=delta_overlap, **kw)


class TestDistanceBlock:
    def test_block_and_cost_are_read_only_and_built_once(self, monkeypatch):
        # every LP of the cell, the fair LP and each LP2, reads the one cost
        rng = np.random.default_rng(31)
        inst = random_euclidean_instance(rng, n=12, m=5, k=3, p=1.0)
        problem = FairAssignmentProblem(inst, (0, 1, 2), delta_to_profile(inst, 0.0))
        real_scale = fair_module.pow2_scale
        scales = []
        monkeypatch.setattr(fair_module, "pow2_scale",
                            lambda dmax: scales.append(dmax) or real_scale(dmax))
        res = fair_assignment(problem)
        assert res.rounding_iterations >= 1
        assert len(scales) == 1
        assert problem.dist is problem.dist and problem.cost is problem.cost
        assert not problem.dist.flags.writeable
        assert not problem.cost[0].flags.writeable
        np.testing.assert_array_equal(problem.dist, inst.dist_cf[:, [0, 1, 2]])

    def test_finite_p_layout_is_every_pair_row_major(self):
        inst = fixed_instance(p=2.0, n=9, m=4, k=3, seed=5)
        problem = FairAssignmentProblem(inst, (0, 2, 3), delta_to_profile(inst, 0.2))
        n, s = inst.n, len(problem.opened)
        v, j = problem.pairs()
        expected_v, expected_j = np.divmod(np.arange(n * s), s)
        np.testing.assert_array_equal(v, expected_v)
        np.testing.assert_array_equal(j, expected_j)
        assert build_fair_lp(problem).num_vars == n * s


class TestBuildFairLp:
    def test_vacuous_profile_gives_nearest_assignment_value(self):
        inst = fixed_instance(p=2.0, n=8, m=3, k=2, seed=1)
        problem = FairAssignmentProblem(inst, (0, 2), FairnessProfile.vacuous(inst.ell))
        sol = solve_lp(build_fair_lp(problem))
        assert sol.status is LpStatus.OPTIMAL
        nearest = inst.dist_cf[:, [0, 2]].min(axis=1)
        assert sol.objective == pytest.approx(float((nearest**2).sum()), rel=1e-9)

    def test_single_facility_forced(self):
        inst = fixed_instance(p=1.0, n=6, m=3, k=1, seed=2)
        prof = delta_to_profile(inst, 0.3)
        problem = FairAssignmentProblem(inst, (1,), prof)
        sol = solve_lp(build_fair_lp(problem))
        # single cluster always realizes the dataset ratios, so feasible
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(float(inst.dist_cf[:, 1].sum()), rel=1e-9)
        np.testing.assert_allclose(sol.values, 1.0, atol=1e-7)

    def test_single_facility_infeasible_outside_ratio(self):
        inst = fixed_instance(p=1.0, n=6, m=3, k=1, seed=3, delta_overlap=1)
        r0 = inst.group_ratios[0]
        alpha = [1.0] * inst.ell
        beta = [0.0] * inst.ell
        alpha[0] = max(0.0, r0 - 0.2)  # cap group 0 below its dataset share
        problem = FairAssignmentProblem(inst, (0,), FairnessProfile(tuple(alpha), tuple(beta)))
        assert solve_lp(build_fair_lp(problem)).status is LpStatus.INFEASIBLE

    def test_lp_lower_bounds_integer_optimum(self):
        # 4 clients, 2 facilities, 2 disjoint groups, alpha=beta=0.5
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        fac = np.array([[0.5], [2.5]])
        inst = ClusteringInstance.from_points(pts, [{0, 1}, {2, 3}], k=2, p=1.0,
                                              facility_points=fac)
        prof = FairnessProfile(alpha=(0.5, 0.5), beta=(0.5, 0.5))
        problem = FairAssignmentProblem(inst, (0, 1), prof)
        sol = solve_lp(build_fair_lp(problem))
        opt, _ = slow_fair_assignment_opt(inst, [0, 1], prof, p=1.0)
        assert sol.objective <= opt**1.0 + 1e-9

    def test_lp_value_below_fair_optimum_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            inst = random_euclidean_instance(rng, n=6, m=3, k=2, p=2.0)
            prof = delta_to_profile(inst, 0.4)
            opened = (0, 1)
            opt, _ = slow_fair_assignment_opt(inst, list(opened), prof, p=2.0)
            if math.isinf(opt):
                continue
            sol = solve_lp(build_fair_lp(FairAssignmentProblem(inst, opened, prof)))
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective <= opt**2.0 + 1e-7 * max(1.0, opt**2.0)


class TestIterativeRound:
    def test_integral_lp_means_zero_iterations(self):
        inst = fixed_instance(p=1.0, n=8, m=4, k=2, seed=5)
        problem = FairAssignmentProblem(inst, (0, 3), FairnessProfile.vacuous(inst.ell))
        sol = solve_lp(build_fair_lp(problem))
        res = iterative_round(problem, sol)
        assert res.rounding_iterations == 0
        np.testing.assert_array_equal(res.assignment.phi, nearest_assignment(inst, [0, 3]))
        assert res.lambda_observed == 0.0

    def test_cost_and_violation_bounds_random(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(20):
            inst = random_euclidean_instance(rng, n=int(rng.integers(6, 9)), m=4,
                                             k=3, p=float(rng.choice([1.0, 2.0])))
            prof = delta_to_profile(inst, float(rng.choice([0.0, 0.2, 0.5])))
            opened = tuple(sorted(rng.choice(inst.m, size=3, replace=False).tolist()))
            problem = FairAssignmentProblem(inst, opened, prof)
            sol = solve_lp(build_fair_lp(problem))
            if sol.status is not LpStatus.OPTIMAL:
                continue
            res = iterative_round(problem, sol)
            checked += 1
            assert res.lambda_observed <= 4 * inst.delta + 3 + 1e-9
            cost_p = res.assignment.cost_p ** problem.p
            assert cost_p <= sol.objective + 1e-6 * max(1.0, sol.objective)
            opt, _ = slow_fair_assignment_opt(inst, list(opened), prof, p=problem.p)
            assert res.assignment.cost_p <= opt + 1e-7 * max(1.0, opt)
            # monotone LP2 objectives (iterative_round itself raises when an
            # LP solution breaks client conservation)
            objs = res.lp2_objectives
            for a, b in zip(objs, objs[1:]):
                assert b <= a + 1e-7 * max(1.0, abs(a))
        assert checked >= 12

    def test_final_loads_stay_in_windows_of_initial_t(self):
        # the rounded per-facility and per-(facility, group) loads of the
        # initially fractional clients stay within [floor(T0)-2D-1, ceil(T0)+2D+1]
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(15):
            inst = random_euclidean_instance(rng, n=int(rng.integers(7, 12)), m=4, k=3)
            if math.isinf(inst.p):
                inst = inst.with_p(float(rng.choice([1.0, 2.0])))
            prof = delta_to_profile(inst, float(rng.choice([0.0, 0.2])))
            opened = tuple(sorted(rng.choice(inst.m, size=3, replace=False).tolist()))
            problem = FairAssignmentProblem(inst, opened, prof)
            sol = solve_lp(build_fair_lp(problem))
            if sol.status is not LpStatus.OPTIMAL:
                continue
            res = iterative_round(problem, sol)
            checked += 1
            slack = 2 * inst.delta + 1
            # clients integral in the LP are fixed before the loop; the others'
            # nonzero values make up the initial loads T0
            x = np.asarray(sol.values).reshape(inst.n, len(opened))
            loose = [v for v in range(inst.n) if x[v].max() < 1.0 - 1e-6]
            for pos, f in enumerate(opened):
                load = sum(1 for v in loose if res.assignment.phi[v] == f)
                t0 = sum(x[v, pos] for v in loose if x[v, pos] > 1e-6)
                assert math.floor(t0 + 1e-7) - slack <= load <= math.ceil(t0 - 1e-7) + slack
                for i in range(inst.ell):
                    gload = sum(1 for v in loose
                                if res.assignment.phi[v] == f and inst.membership[v, i])
                    g0 = sum(x[v, pos] for v in loose
                             if x[v, pos] > 1e-6 and inst.membership[v, i])
                    assert math.floor(g0 + 1e-7) - slack <= gload <= math.ceil(g0 - 1e-7) + slack
        assert checked >= 10

    def test_rounding_can_undercut_the_fair_lp(self):
        # clients A (group 1) and B (group 2) at 0, C (group 2) at 4;
        # facilities at 0 and 4; group 1 capped at 40% of any cluster.
        # The exact-ratio LP must ship 1/3 of A to the far facility
        # (unique optimum 4/3), but the floor/ceil windows of the rounding
        # LP admit the all-nearest assignment at cost 0 and violation 0.2:
        # the LP value upper-bounds the rounded cost, it is not a floor
        pts = np.array([[0.0], [0.0], [4.0]])
        fac = np.array([[0.0], [4.0]])
        inst = ClusteringInstance.from_points(pts, [{0}, {1, 2}], k=2, p=1.0,
                                              facility_points=fac)
        prof = FairnessProfile(alpha=(0.4, 1.0), beta=(0.2, 0.0))
        problem = FairAssignmentProblem(inst, (0, 1), prof)
        sol = solve_lp(build_fair_lp(problem))
        assert sol.objective == pytest.approx(4.0 / 3.0)
        res = iterative_round(problem, sol)
        assert res.assignment.cost_p == pytest.approx(0.0)
        assert res.lambda_observed == pytest.approx(0.2)

    def test_termination_budget(self):
        rng = np.random.default_rng(31)
        inst = random_euclidean_instance(rng, n=12, m=5, k=3, p=1.0)
        prof = delta_to_profile(inst, 0.0)
        problem = FairAssignmentProblem(inst, (0, 1, 2), prof)
        sol = solve_lp(build_fair_lp(problem))
        res = iterative_round(problem, sol)
        n_vars = inst.n * 3
        n_rows = 2 * 3 * (inst.ell + 1) + inst.n
        assert res.rounding_iterations <= n_vars + n_rows



class TestRuntimeChecks:
    def _fractional_problem(self):
        # a cell whose fair LP optimum is fractional, so rounding solves LP2s
        rng = np.random.default_rng(31)
        inst = random_euclidean_instance(rng, n=12, m=5, k=3, p=1.0)
        problem = FairAssignmentProblem(inst, (0, 1, 2), delta_to_profile(inst, 0.0))
        sol = solve_lp(build_fair_lp(problem))
        assert iterative_round(problem, sol).rounding_iterations >= 1
        return problem, sol

    @staticmethod
    def _halve_first_client(sol, layout_clients):
        values = np.array(sol.values)
        values[layout_clients == layout_clients[0]] *= 0.5
        return LpSolution(status=LpStatus.OPTIMAL, values=values, objective=sol.objective)

    def test_initial_solution_breaking_conservation_raises(self):
        problem, sol = self._fractional_problem()
        clients = np.arange(sol.values.size) // len(problem.opened)
        with pytest.raises(SolverError, match="conservation"):
            iterative_round(problem, self._halve_first_client(sol, clients))

    def test_lp2_vertex_breaking_conservation_raises(self, monkeypatch):
        problem, sol = self._fractional_problem()
        seen = []

        real_solve = fair_module.solve_lp

        def doctored(model):
            seen.append(model.num_vars)
            # the equality rows are the assignment rows, one per client
            clients = model.a_eq.tocsc().indices
            return self._halve_first_client(real_solve(model), clients)

        monkeypatch.setattr(fair_module, "solve_lp", doctored)
        with pytest.raises(SolverError, match="conservation"):
            iterative_round(problem, sol)
        assert len(seen) == 1

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_aggregate_ratios_rejected_before_any_lp(self, p, monkeypatch):
        inst = fixed_instance(p=p, n=8, m=3, k=2, seed=9, delta_overlap=1)
        beta = [0.0] * inst.ell
        beta[1] = min(1.0, inst.group_ratios[1] + 0.3)
        prof = FairnessProfile((1.0,) * inst.ell, tuple(beta))

        def no_lp(model):
            raise AssertionError("an LP was solved before the aggregate check")

        monkeypatch.setattr(fair_module, "solve_lp", no_lp)
        monkeypatch.setattr(fair_module, "check_feasible", no_lp)
        with pytest.raises(FairnessInfeasibleError, match="group 1"):
            fair_assignment(FairAssignmentProblem(inst, (0, 1), prof))

    def test_lp2_that_never_fixes_a_variable_stalls(self, monkeypatch):
        # an LP2 "vertex" that spreads each client evenly over its pairs meets
        # every assignment row and fixes nothing; each pass can then only drop
        # rows, so the loop must stop with the stall error within |S|(ell+1)+1
        # solves: nothing but progress keeps the loop going
        problem, sol = self._fractional_problem()
        solves = []

        def spread(model):
            clients = model.a_eq.tocsc().indices
            solves.append(model.num_vars)
            return LpSolution(status=LpStatus.OPTIMAL, objective=0.0,
                              values=1.0 / np.bincount(clients)[clients])

        monkeypatch.setattr(fair_module, "solve_lp", spread)
        with pytest.raises(SolverError, match="stalled"):
            iterative_round(problem, sol)
        assert 1 <= len(solves) <= len(problem.opened) * (problem.instance.ell + 1) + 1
        assert len(set(solves)) == 1  # no variable was ever fixed

    def test_k_center_radius_check_fires(self, monkeypatch):
        # clients on a line at 0, 1 and 2 + e, centers at the two ends: G* = 1,
        # and client 1 is e = 1e-7 farther from the far center. Rounding only
        # assigns along LP variables, all within G*, so a doctored vertex from
        # check_feasible cannot move a client past G*; the rounding is doctored
        e = 1e-7
        dmat = np.array([[0.0, 1.0, 2.0 + e], [1.0, 0.0, 1.0 + e], [2.0 + e, 1.0 + e, 0.0]])
        inst = ClusteringInstance.from_distance_matrix(dmat, [{0, 2}, {1}], k=2, p=math.inf)
        problem = FairAssignmentProblem(inst, (0, 2), FairnessProfile.vacuous(2))
        res = fair_assign_k_center(problem)
        assert res.guess == 1.0 and res.assignment.phi.tolist() == [0, 0, 2]

        real_round = fair_module.iterative_round

        def far_client(problem, sol, guess=None):
            result = real_round(problem, sol, guess)
            phi = result.assignment.phi.copy()
            phi[1] = 2
            return replace(result, assignment=Assignment(problem.instance, problem.opened, phi))

        monkeypatch.setattr(fair_module, "iterative_round", far_client)
        with pytest.raises(SolverError,
                           match=r"rounded radius 1\.0000001 exceeds feasible guess 1\.0"):
            fair_assign_k_center(problem)

    def test_violation_above_the_4_delta_plus_3_bound_raises(self, monkeypatch):
        problem, sol = self._fractional_problem()
        bound = 4 * problem.instance.delta + 3
        monkeypatch.setattr(fair_module, "additive_violation", lambda *args: bound + 0.5)
        with pytest.raises(SolverError, match=rf"exceeds the 4\*Delta\+3 bound {bound}"):
            iterative_round(problem, sol)

    def test_rounded_cost_above_the_lp_optimum_raises(self):
        # a reported LP optimum below the rounded sum d^p: halved, and 1e-5
        # relative below it, just past the 1e-6 tolerance; 1e-7 below passes
        problem, sol = self._fractional_problem()
        rounded = iterative_round(problem, sol).assignment.cost_p ** problem.p
        assert rounded > 1.0

        def reporting(objective):
            return LpSolution(status=LpStatus.OPTIMAL, values=sol.values, objective=objective)

        for objective in (sol.objective / 2, rounded * (1.0 - 1e-5)):
            with pytest.raises(SolverError, match="exceeds the initial LP optimum"):
                iterative_round(problem, reporting(objective))
        within = rounded * (1.0 - 1e-7)
        assert iterative_round(problem, reporting(within)).initial_lp_objective == within

    def test_infeasible_lp_after_the_check_is_a_solver_error(self, monkeypatch):
        inst = fixed_instance(p=2.0, n=8, m=3, k=2, seed=9)
        problem = FairAssignmentProblem(inst, (0, 1), delta_to_profile(inst, 0.2))
        monkeypatch.setattr(fair_module, "solve_lp", lambda model: LpSolution(
            status=LpStatus.INFEASIBLE, values=None, objective=None))
        with pytest.raises(SolverError, match="contract"):
            fair_assignment(problem)

class TestKCenterPath:
    def test_vacuous_guess_is_max_nearest(self):
        inst = fixed_instance(p=math.inf, n=9, m=4, k=2, seed=6)
        problem = FairAssignmentProblem(inst, (1, 3), FairnessProfile.vacuous(inst.ell))
        res = fair_assignment(problem)
        nearest = inst.dist_cf[:, [1, 3]].min(axis=1)
        assert res.guess == pytest.approx(float(nearest.max()))
        assert res.rounding_iterations == 0

    def test_single_facility_guess(self):
        inst = fixed_instance(p=math.inf, n=7, m=3, k=1, seed=7)
        problem = FairAssignmentProblem(inst, (2,), delta_to_profile(inst, 0.2))
        res = fair_assign_k_center(problem)
        assert res.guess == pytest.approx(float(inst.dist_cf[:, 2].max()))

    def test_feasibility_lp_edges(self):
        inst = fixed_instance(p=math.inf, n=6, m=3, k=2, seed=8)
        problem = FairAssignmentProblem(inst, (0, 1), FairnessProfile.vacuous(inst.ell))
        gmax = float(inst.dist_cf[:, [0, 1]].max())
        assert check_feasible(build_fair_feasibility_lp(problem, gmax)) is not None
        too_small = float(inst.dist_cf[:, [0, 1]].min(axis=1).max()) - 1e-9
        assert check_feasible(build_fair_feasibility_lp(problem, too_small)) is None

    def test_guess_member_of_multiset_and_bounds(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            inst = random_euclidean_instance(rng, n=7, m=4, k=2, p=math.inf)
            prof = delta_to_profile(inst, float(rng.choice([0.2, 0.5])))
            opened = tuple(sorted(rng.choice(inst.m, size=2, replace=False).tolist()))
            problem = FairAssignmentProblem(inst, opened, prof)
            res = fair_assign_k_center(problem)
            dist_multiset = inst.dist_cf[:, list(opened)].ravel()
            assert np.any(np.isclose(dist_multiset, res.guess, rtol=0, atol=0))
            dmax = max(inst.dist_cf[v, res.assignment.phi[v]] for v in range(inst.n))
            assert dmax <= res.guess + 1e-12
            opt_radius, _ = slow_fair_assignment_opt(inst, list(opened), prof, p=math.inf)
            assert res.guess <= opt_radius + 1e-12
            assert res.lambda_observed <= 4 * inst.delta + 3 + 1e-9

    def test_infeasible_profile_reports_group(self):
        inst = fixed_instance(p=math.inf, n=8, m=3, k=2, seed=9, delta_overlap=1)
        alpha = [1.0] * inst.ell
        beta = [0.0] * inst.ell
        beta[1] = min(1.0, inst.group_ratios[1] + 0.3)  # demand more than exists
        alpha[1] = max(alpha[1], beta[1])
        prof = FairnessProfile(tuple(alpha), tuple(beta))
        problem = FairAssignmentProblem(inst, (0, 1), prof)
        with pytest.raises(FairnessInfeasibleError, match="group 1"):
            fair_assign_k_center(problem)


class TestFairClustering:
    @pytest.mark.parametrize("p,solver", [
        (1.0, SolverId.K_MEDIAN_LOCAL_SEARCH),
        (2.0, SolverId.K_MEANS_LLOYD),
        (math.inf, SolverId.K_CENTER_GONZALEZ),
    ])
    def test_vacuous_identity(self, p, solver):
        inst = fixed_instance(p=p, n=10, m=5, k=3, seed=10)
        res = fair_clustering(solve_vanilla(inst, solver, seed=13),
                              FairnessProfile.vacuous(inst.ell))
        assert np.array_equal(res.solution.phi, res.vanilla.phi)
        assert res.solution.cost_p == res.vanilla.cost_p  # bit-identical
        assert res.lambda_observed == 0.0
        assert res.fair.rounding_iterations == 0

    def test_cost_chain_against_bruteforce(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(12):
            p = float(rng.choice([1.0, 2.0]))
            inst = random_euclidean_instance(rng, n=6, m=3, k=2, p=p)
            prof = delta_to_profile(inst, float(rng.choice([0.2, 0.5])))
            vanilla = solve_vanilla(inst, default_solver_for(p), seed=int(rng.integers(100)))
            res = fair_clustering(vanilla, prof)
            opt_vnll = slow_vanilla_opt(inst)
            best_fair = math.inf
            import itertools
            for S in itertools.combinations(range(inst.m), inst.k):
                c, _ = slow_fair_assignment_opt(inst, list(S), prof, p=p)
                best_fair = min(best_fair, c)
            if math.isinf(best_fair) or opt_vnll <= 0:
                continue
            checked += 1
            rho = res.vanilla.cost_p / opt_vnll
            assert res.solution.cost_p <= (rho + 2.0) * best_fair + 1e-6
            # the nearest assignment on S lower-bounds any assignment on S,
            # so the vanilla witness never costs more than the fair output
            assert res.vanilla.cost_p <= res.solution.cost_p + 1e-9
            assert opt_vnll <= best_fair + 1e-9
        assert checked >= 6

    def test_infeasible_profile_raises(self):
        inst = fixed_instance(p=1.0, n=8, m=4, k=2, seed=12, delta_overlap=1)
        alpha = [min(1.0, max(0.0, r - 0.15)) for r in inst.group_ratios]
        prof = FairnessProfile(tuple(alpha), (0.0,) * inst.ell)
        with pytest.raises(FairnessInfeasibleError, match="group"):
            fair_clustering(solve_vanilla(inst, SolverId.K_MEDIAN_LOCAL_SEARCH, seed=0), prof)

    def test_report_contents(self):
        inst = fixed_instance(p=2.0, n=12, m=5, k=3, seed=13)
        prof = delta_to_profile(inst, 0.2)
        res = fair_clustering(solve_vanilla(inst, SolverId.K_MEANS_LLOYD, seed=4), prof)
        rep = res.report
        assert sum(rep.cluster_sizes.values()) == inst.n
        assert rep.lambda_max == additive_violation(inst, prof, res.solution)
        assert set(rep.timings_ms) == {"fair_assignment"}


def test_pipeline_fuzz_gate():
    # broad randomized gate over norms, metric types, overlap, and delta:
    # the violation bound, the cost-vs-LP relation, the bottleneck radius,
    # and the lower-bound floors must hold on every draw
    from faircluster import lb_clustering
    from util import random_integer_metric_instance

    rng = np.random.default_rng(424242)
    for trial in range(100):
        if trial % 5 == 4:
            inst = random_integer_metric_instance(rng, n=int(rng.integers(6, 10)),
                                                  k=int(rng.integers(2, 4)),
                                                  p=[1.0, 2.0, math.inf][trial % 3],
                                                  delta_overlap=1 + trial % 2)
        else:
            inst = random_euclidean_instance(rng)
        solver = default_solver_for(inst.p)
        if not inst.is_euclidean and solver is SolverId.K_MEANS_LLOYD:
            solver = SolverId.K_MEDIAN_LOCAL_SEARCH
        knob = float(rng.choice([0.0, 0.05, 0.2, 0.5, 0.8]))
        res = fair_clustering(solve_vanilla(inst, solver, seed=trial), delta_to_profile(inst, knob))
        assert res.lambda_observed <= 4 * inst.delta + 3 + 1e-9
        if res.fair.initial_lp_objective is not None:
            lhs = res.solution.cost_p ** inst.p
            assert lhs <= res.fair.initial_lp_objective * (1 + 1e-6) + 1e-9
        if math.isinf(inst.p) and res.fair.guess is not None:
            d = inst.dist_cf[np.arange(inst.n), res.solution.phi]
            assert d.max() <= res.fair.guess + 1e-9
        if trial % 7 == 0:
            L = int(rng.integers(1, 4))
            lb = lb_clustering(inst, L=L, solver_id=solver, seed=trial)
            assert all(s >= L for s in lb.solution.cluster_sizes().values())


class TestReassignmentClaims:
    def test_composition_preserves_fairness_and_cost(self):
        # for an exactly fair phi* on centers S*, composing with nearest-in-S
        # stays exactly fair and pays at most 2 cost(phi*) + cost(nearest)
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(20):
            p = float(rng.choice([1.0, 2.0]))
            inst = random_euclidean_instance(rng, n=6, m=4, k=2, p=p)
            prof = delta_to_profile(inst, float(rng.choice([0.3, 0.6])))
            s_star = sorted(rng.choice(inst.m, size=2, replace=False).tolist())
            opt, phi_star = slow_fair_assignment_opt(inst, s_star, prof, p=p)
            if phi_star is None:
                continue
            checked += 1
            vanilla = solve_vanilla(inst, default_solver_for(p), seed=3)
            S = list(vanilla.opened)
            nrst = {fs: S[int(np.argmin(inst.dist_ff[list(S), fs]))] for fs in s_star}
            composed = np.array([nrst[phi_star[v]] for v in range(inst.n)])
            asg = Assignment(inst, tuple(sorted(set(composed))) if len(set(composed)) <= inst.k
                             else tuple(S), composed)
            assert additive_violation(inst, prof, asg) <= 1e-9
            lhs = lp_norm_cost(inst, set(composed), composed)
            rhs = 2.0 * opt + vanilla.cost_p
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)
        assert checked >= 10
