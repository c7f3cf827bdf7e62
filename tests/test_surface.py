"""The package's public surface, and the names the benchmark patches."""

import importlib
import importlib.util
from pathlib import Path

import faircluster

# the names README's "Public names" section documents
DOCUMENTED = {
    "ClusteringInstance", "FairnessProfile", "Assignment", "FairnessReport",
    "delta_to_profile", "SolverId", "VanillaSolution",
    "FairAssignmentProblem", "FairAssignmentResult", "FairClusteringResult",
    "fair_assignment", "fair_clustering", "LbClusteringResult", "lb_clustering",
    "OracleResult", "almost_fair_lp", "brute_force_assignment", "brute_force_fair",
    "brute_force_lower_bounded",
    "FairnessInfeasibleError", "GuardExceededError", "LbInfeasibleError", "SolverError",
}


def test_all_is_the_documented_surface():
    assert len(faircluster.__all__) == len(set(faircluster.__all__))
    assert set(faircluster.__all__) == DOCUMENTED
    assert [n for n in faircluster.__all__ if not hasattr(faircluster, n)] == []


def test_benchmark_patch_targets_exist():
    # perfbench/spans.py times layers by replacing these module attributes;
    # a renamed or deleted target would only show in a traced benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    missing = [(module, attr) for module, attr, _, _ in spans.PATCHES
               if not callable(getattr(importlib.import_module(f"faircluster.{module}"),
                                       attr, None))]
    assert missing == []
