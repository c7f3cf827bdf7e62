"""Array-built LPs solved at a basic (vertex) optimum.

An ``LpModel`` is a frozen minimization LP in ``scipy.optimize.linprog``'s
own form: objective ``c``, inequality rows ``a_ub @ x <= b_ub`` and equality
rows ``a_eq @ x == b_eq`` (both CSR), and one ``(lo, hi)`` bound pair shared
by every variable. Builders assemble each matrix from COO index arrays in one
call (``csr_from_coo``); ``>=`` rows go into ``a_ub`` negated.

Iterative rounding needs optima that sit at vertices of the feasible polytope,
so solves go through HiGHS' dual simplex ('highs-ds'); simplex solutions are
basic by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# Values within this of 0/1 are treated as integral when rounding.
INTEGRALITY_TOL = 1e-6


class SolverError(RuntimeError):
    """An LP solve ended unclassified, or its solution broke a rounding invariant."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def pow2_scale(dmax: float) -> float:
    """Power-of-two scale ~ dmax, so scaled distances stay near [0, 1]."""
    if dmax <= 0:
        return 1.0
    return float(2.0 ** math.ceil(math.log2(dmax)))


def csr_from_coo(rows, cols, data, shape) -> sp.csr_matrix:
    """CSR matrix from COO triplets, keeping explicit zeros and, within each
    row, the order in which the entries are given."""
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((np.asarray(data, dtype=float)[order],
                          np.asarray(cols, dtype=np.int64)[order], indptr), shape=shape)


@dataclass(frozen=True, eq=False)
class LpModel:
    """minimize c @ x  s.t.  a_ub @ x <= b_ub,  a_eq @ x == b_eq,  lo <= x <= hi.

    A missing row block means no rows of that kind. ``objective_scale``
    rescales the reported objective only (the model may carry scaled-down
    coefficients for conditioning); solution values are never scaled.
    """

    c: np.ndarray
    a_ub: sp.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    bounds: tuple[float, float] = (0.0, 1.0)
    objective_scale: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1:
            raise ValueError(f"objective must be a vector, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective has non-finite coefficients")
        object.__setattr__(self, "c", c)
        for a_name, b_name in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
            a, b = getattr(self, a_name), getattr(self, b_name)
            a = sp.csr_matrix((0, c.size)) if a is None else sp.csr_matrix(a, dtype=float)
            b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
            if a.shape != (b.size, c.size) or b.ndim != 1:
                raise ValueError(f"{a_name} has shape {a.shape} but {b_name} has "
                                 f"{b.size} rows over {c.size} variables")
            if not (np.all(np.isfinite(a.data)) and np.all(np.isfinite(b))):
                raise ValueError(f"{a_name}/{b_name} have non-finite coefficients")
            object.__setattr__(self, a_name, a)
            object.__setattr__(self, b_name, b)
        lo, hi = self.bounds
        if not lo <= hi:
            raise ValueError(f"bad variable bounds [{lo}, {hi}]")

    @property
    def num_vars(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.a_ub.shape[0] + self.a_eq.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    values: np.ndarray | None
    objective: float | None


_STATUS_MAP = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def solve_lp(model: LpModel) -> LpSolution:
    """Solve to optimality at a vertex with one HiGHS dual simplex call.

    Statuses INFEASIBLE / UNBOUNDED are exact classifications; any other
    non-OPTIMAL status raises SolverError with the backend diagnostics.
    """
    res = linprog(model.c, A_ub=model.a_ub, b_ub=model.b_ub, A_eq=model.a_eq,
                  b_eq=model.b_eq, bounds=model.bounds, method="highs-ds")
    status = _STATUS_MAP.get(res.status)
    if status is None:
        raise SolverError(
            f"LP solve failed: status={res.status} message={res.message!r} "
            f"({model.num_vars} vars, {model.num_constraints} rows)"
        )
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, values=None, objective=None)
    values = np.asarray(res.x, dtype=float)
    values.setflags(write=False)
    return LpSolution(status=LpStatus.OPTIMAL, values=values,
                      objective=float(res.fun) * model.objective_scale)


def check_feasible(model: LpModel) -> LpSolution | None:
    """Phase-1 test: the vertex HiGHS returns for the constraint system under
    a zero objective, or None when the system is infeasible. A model whose
    objective is already zero is solved exactly as given, so the returned
    vertex is the one ``solve_lp(model)`` would give."""
    sol = solve_lp(replace(model, c=np.zeros(model.num_vars)))
    return sol if sol.status is LpStatus.OPTIMAL else None
