"""faircluster: turn any (k,p)-clustering into a fair one.

Fix centers with any vanilla solver, then reassign clients through an LP
relaxation of the per-cluster group-ratio constraints, rounded iteratively at
vertices. The result costs no more than the LP optimum and misses each ratio
bound by at most 4*Delta + 3 clients, where Delta is the largest number of
protected groups any single client belongs to. Also ships a lower-bounded
clustering solver (minimum cluster size L), brute-force oracles, and a
benchmark CLI.
"""

from .instance import (
    INFINITY,
    Assignment,
    ClusteringInstance,
    FairnessProfile,
    FairnessReport,
    additive_violation,
    balance,
    build_report,
    delta_to_profile,
    lp_norm_cost,
    nearest_assignment,
)
from .fair import (
    FairAssignmentProblem,
    FairAssignmentResult,
    FairClusteringResult,
    FairnessInfeasibleError,
    build_fair_feasibility_lp,
    build_fair_lp,
    fair_assign_k_center,
    fair_assignment,
    fair_clustering,
    iterative_round,
)
from .lower_bounded import (
    LbClusteringResult,
    LbInfeasibleError,
    lb_clustering,
    min_cost_lb_matching,
)
from .lp import LpModel, LpSolution, LpStatus, SolverError, check_feasible, solve_lp
from .oracle import (
    GuardExceededError,
    OracleResult,
    almost_fair_lp,
    brute_force_assignment,
    brute_force_fair,
    brute_force_lower_bounded,
)
from .vanilla import (
    SolverId,
    VanillaSolution,
    default_solver_for,
    gonzalez_k_center,
    kmeans,
    local_search_k_median,
    solve_vanilla,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "Assignment",
    "ClusteringInstance",
    "FairnessProfile",
    "FairnessReport",
    "additive_violation",
    "balance",
    "build_report",
    "delta_to_profile",
    "lp_norm_cost",
    "nearest_assignment",
    "FairAssignmentProblem",
    "FairAssignmentResult",
    "FairClusteringResult",
    "FairnessInfeasibleError",
    "build_fair_feasibility_lp",
    "build_fair_lp",
    "fair_assign_k_center",
    "fair_assignment",
    "fair_clustering",
    "iterative_round",
    "LbClusteringResult",
    "LbInfeasibleError",
    "lb_clustering",
    "min_cost_lb_matching",
    "LpModel",
    "LpSolution",
    "LpStatus",
    "SolverError",
    "check_feasible",
    "solve_lp",
    "GuardExceededError",
    "OracleResult",
    "almost_fair_lp",
    "brute_force_assignment",
    "brute_force_fair",
    "brute_force_lower_bounded",
    "SolverId",
    "VanillaSolution",
    "default_solver_for",
    "gonzalez_k_center",
    "kmeans",
    "local_search_k_median",
    "solve_vanilla",
]
