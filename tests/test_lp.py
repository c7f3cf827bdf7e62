import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from faircluster import FairAssignmentProblem, delta_to_profile
from faircluster.fair import build_fair_lp
import faircluster.lp as lp_module
from faircluster.lp import (
    LpModel,
    LpStatus,
    SolverError,
    check_feasible,
    csr_from_coo,
    solve_lp,
)

from util import random_euclidean_instance


def test_minimize_with_lower_bound():
    # min x  s.t.  x >= 3  (as -x <= -3),  0 <= x <= 10
    m = LpModel(c=[1.0], a_ub=[[-1.0]], b_ub=[-3.0], bounds=(0.0, 10.0))
    sol = solve_lp(m)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert sol.values[0] == pytest.approx(3.0)


def test_infeasible_pair():
    m = LpModel(c=[0.0], a_ub=[[-1.0], [1.0]], b_ub=[-2.0, 1.0], bounds=(0.0, 10.0))
    assert solve_lp(m).status is LpStatus.INFEASIBLE
    assert check_feasible(m) is None


def test_unclassified_status_raises_solver_error(monkeypatch):
    # status 4 is HiGHS' "numerical difficulties": one dual-simplex call, no retry
    methods = []

    def numerical_trouble(*args, method, **kwargs):
        methods.append(method)
        return SimpleNamespace(status=4, message="numerical difficulties", x=None, fun=None)

    monkeypatch.setattr(lp_module, "linprog", numerical_trouble)
    m = LpModel(c=[1.0], a_ub=[[-1.0]], b_ub=[-3.0], bounds=(0.0, 10.0))
    with pytest.raises(SolverError,
                       match=r"status=4 message='numerical difficulties' \(1 vars, 1 rows\)"):
        solve_lp(m)
    assert methods == ["highs-ds"]


def test_empty_constraints_feasible():
    m = LpModel(c=[0.0])
    assert m.num_constraints == 0
    assert check_feasible(m) is not None


def test_model_validation():
    with pytest.raises(ValueError, match="shape"):
        LpModel(c=[0.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    with pytest.raises(ValueError, match="shape"):
        LpModel(c=[0.0], a_eq=[[1.0]], b_eq=[1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        LpModel(c=[0.0], a_ub=[[math.nan]], b_ub=[1.0])
    with pytest.raises(ValueError, match="finite"):
        LpModel(c=[0.0], a_eq=[[1.0]], b_eq=[math.inf])
    with pytest.raises(ValueError, match="finite"):
        LpModel(c=[math.nan])
    with pytest.raises(ValueError, match="bounds"):
        LpModel(c=[0.0], bounds=(1.0, 0.0))


def test_per_variable_bounds_and_reported_vars():
    # max x0 + x1 with x0 in [0, 1], x1 in [0, 2] and the auxiliary
    # x2 = x0 + x1 in [0, inf); solutions report x0 and x1 only
    m = LpModel(c=[-1.0, -1.0, 0.0], a_eq=[[1.0, 1.0, -1.0]], b_eq=[0.0],
                bounds=np.array([[0.0, 1.0], [0.0, 2.0], [0.0, math.inf]]), reported_vars=2)
    sol = solve_lp(m)
    assert sol.objective == pytest.approx(-3.0)
    np.testing.assert_allclose(sol.values, [1.0, 2.0])
    assert check_feasible(m).values.size == 2
    with pytest.raises(ValueError, match="bounds"):
        LpModel(c=[0.0, 0.0], bounds=np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"bad variable bounds \[2.0, 1.0\]"):
        LpModel(c=[0.0, 0.0], bounds=[[0.0, 1.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="reported_vars"):
        LpModel(c=[0.0], reported_vars=2)


def test_csr_from_coo_keeps_zeros_and_row_order():
    a = csr_from_coo([1, 0, 1, 1], [2, 1, 0, 1], [5.0, 0.0, 6.0, 7.0], (3, 3))
    np.testing.assert_array_equal(a.indptr, [0, 1, 4, 4])
    np.testing.assert_array_equal(a.indices, [1, 2, 0, 1])
    np.testing.assert_array_equal(a.data, [0.0, 5.0, 6.0, 7.0])


def _vertex_enumeration_opt(c, rows, bounds):
    """Independent LP oracle: enumerate all potential vertices as intersections
    of three tight hyperplanes (constraint rows and box faces), keep feasible
    ones, return the minimum objective."""
    nv = 3
    halfspaces = []  # (a, b) meaning a.x <= b
    planes = []      # (a, b) candidate tight equalities
    for idx, coefs, sense, rhs in rows:
        a = np.zeros(nv)
        a[list(idx)] = coefs
        if sense == "<=":
            halfspaces.append((a, rhs))
            planes.append((a, rhs))
        elif sense == ">=":
            halfspaces.append((-a, -rhs))
            planes.append((a, rhs))
        else:
            halfspaces.append((a, rhs))
            halfspaces.append((-a, -rhs))
            planes.append((a, rhs))
    for j, (lo, hi) in enumerate(bounds):
        e = np.zeros(nv)
        e[j] = 1.0
        halfspaces.append((-e, -lo))
        halfspaces.append((e, hi))
        planes.append((e, lo))
        planes.append((e, hi))

    best = math.inf
    for combo in itertools.combinations(range(len(planes)), nv):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        if all(a @ x <= rhs + 1e-7 for a, rhs in halfspaces):
            best = min(best, float(c @ x))
    return best


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(40):
        c = rng.normal(size=3)
        bounds = [(0.0, float(rng.uniform(0.5, 3.0))) for _ in range(3)]
        rows = []
        for _ in range(rng.integers(1, 4)):
            idx = sorted(rng.choice(3, size=int(rng.integers(1, 4)), replace=False).tolist())
            coefs = rng.normal(size=len(idx))
            sense = ["<=", ">="][int(rng.integers(2))]
            rhs = float(rng.normal())
            rows.append((idx, coefs, sense, rhs))
        # >= rows go in negated; the per-variable upper bounds become rows
        a_ub = np.zeros((len(rows) + 3, 3))
        b_ub = np.zeros(len(rows) + 3)
        for r, (idx, coefs, sense, rhs) in enumerate(rows):
            sign = 1.0 if sense == "<=" else -1.0
            a_ub[r, idx] = sign * coefs
            b_ub[r] = sign * rhs
        a_ub[len(rows):] = np.eye(3)
        b_ub[len(rows):] = [hi for _, hi in bounds]
        m = LpModel(c=c, a_ub=a_ub, b_ub=b_ub, bounds=(0.0, math.inf))
        sol = solve_lp(m)
        oracle = _vertex_enumeration_opt(c, rows, bounds)
        if sol.status is LpStatus.INFEASIBLE:
            assert oracle == math.inf
            continue
        solved += 1
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(oracle, rel=1e-6, abs=1e-6)
    assert solved >= 10


def test_vertex_property_on_fair_lps():
    # basic solutions: strictly fractional variables never outnumber the rows
    rng = np.random.default_rng(5)
    for _ in range(15):
        inst = random_euclidean_instance(rng, n=9, m=4, k=3, p=1.0)
        problem = FairAssignmentProblem(inst, (0, 1, 2), delta_to_profile(inst, 0.2))
        model = build_fair_lp(problem)
        sol = solve_lp(model)
        assert sol.status is LpStatus.OPTIMAL
        fractional = np.count_nonzero((sol.values > 1e-6) & (sol.values < 1.0 - 1e-6))
        assert fractional <= model.num_constraints


def test_resolve_is_deterministic():
    rng = np.random.default_rng(9)
    inst = random_euclidean_instance(rng, n=8, m=3, k=2, p=2.0)
    problem = FairAssignmentProblem(inst, (0, 1), delta_to_profile(inst, 0.1))
    model = build_fair_lp(problem)
    a = solve_lp(model)
    b = solve_lp(model)
    assert b.objective == pytest.approx(a.objective, rel=1e-9)
    np.testing.assert_allclose(a.values, b.values, atol=1e-12)


def test_objective_scale_applied():
    m = LpModel(c=[1.0], a_ub=[[-1.0]], b_ub=[-2.0], bounds=(0.0, 10.0), objective_scale=4.0)
    assert solve_lp(m).objective == pytest.approx(8.0)

