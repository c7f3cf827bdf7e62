"""faircluster: turn any (k,p)-clustering into a fair one.

Fix centers with any vanilla solver, then reassign clients through an LP
relaxation of the per-cluster group-ratio constraints, rounded iteratively at
vertices. The result costs no more than the LP optimum and misses each ratio
bound by at most 4*Delta + 3 clients, where Delta is the largest number of
protected groups any single client belongs to. Also ships a lower-bounded
clustering solver (minimum cluster size L), brute-force oracles, and a
benchmark CLI.

The package exports the documented pipeline, its result types, the oracles
and the error types; everything else is imported from its own module.
"""

from .instance import Assignment, ClusteringInstance, FairnessProfile, FairnessReport, delta_to_profile
from .fair import (
    FairAssignmentProblem,
    FairAssignmentResult,
    FairClusteringResult,
    FairnessInfeasibleError,
    fair_assignment,
    fair_clustering,
)
from .lower_bounded import LbClusteringResult, LbInfeasibleError, lb_clustering
from .lp import SolverError
from .oracle import (
    GuardExceededError,
    OracleResult,
    almost_fair_lp,
    brute_force_assignment,
    brute_force_fair,
    brute_force_lower_bounded,
)
from .vanilla import SolverId, VanillaSolution

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ClusteringInstance",
    "FairnessProfile",
    "FairnessReport",
    "delta_to_profile",
    "FairAssignmentProblem",
    "FairAssignmentResult",
    "FairClusteringResult",
    "FairnessInfeasibleError",
    "fair_assignment",
    "fair_clustering",
    "LbClusteringResult",
    "LbInfeasibleError",
    "lb_clustering",
    "SolverError",
    "GuardExceededError",
    "OracleResult",
    "almost_fair_lp",
    "brute_force_assignment",
    "brute_force_fair",
    "brute_force_lower_bounded",
    "SolverId",
    "VanillaSolution",
]
