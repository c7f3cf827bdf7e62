import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircluster import Assignment, ClusteringInstance, FairnessProfile, delta_to_profile
from faircluster.instance import (
    additive_violation,
    balance,
    build_report,
    nearest_assignment,
)

from util import random_euclidean_instance, slow_violation


def line_instance(client_xs, facility_xs, groups, k, p):
    pts = np.asarray(client_xs, dtype=float)[:, None]
    fac = np.asarray(facility_xs, dtype=float)[:, None]
    return ClusteringInstance.from_points(pts, groups, k=k, p=p, facility_points=fac)


class TestLpNormCost:
    """Assignment.cost_p, the l_p objective in the instance norm."""

    def test_p1_is_sum(self):
        inst = line_instance([1, 2, 3], [0], [{0, 1, 2}], k=1, p=1)
        assert Assignment(inst, (0,), [0, 0, 0]).cost_p == pytest.approx(6.0)

    def test_p2_pythagoras(self):
        inst = line_instance([3, -4], [0], [{0, 1}], k=1, p=2)
        assert Assignment(inst, (0,), [0, 0]).cost_p == pytest.approx(5.0)

    def test_pinf_is_max(self):
        inst = line_instance([1, 5, -2], [0], [{0, 1, 2}], k=1, p=math.inf)
        assert Assignment(inst, (0,), [0, 0, 0]).cost_p == 5.0

    def test_undefined_facility_rejected(self):
        inst = line_instance([1, 2], [0, 9], [{0, 1}], k=2, p=1)
        with pytest.raises(ValueError, match="outside opened"):
            Assignment(inst, (0,), [0, 1])

    # magnitudes below ~1e-150 underflow when squared inside the Euclidean
    # distance, so keep the generated coordinates in a physical range
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(min_value=1e-6, max_value=100)),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_multiset_sum_and_max(self, dists):
        # one facility at 0, clients on a ray: distances are the coordinates
        inst = line_instance(dists, [0.0], [set(range(len(dists)))], k=1, p=1)
        phi = [0] * len(dists)
        assert Assignment(inst, (0,), phi).cost_p == pytest.approx(math.fsum(dists))
        assert Assignment(inst.with_p(math.inf), (0,), phi).cost_p == max(dists)


def two_group_instance(n=8):
    # clients on a line, two facilities; groups split the index range evenly
    xs = list(range(n))
    g1 = set(range(n // 2))
    g2 = set(range(n // 2, n))
    return line_instance(xs, [0, n - 1], [g1, g2], k=2, p=1)


class TestBalance:
    def test_exact_split_is_one(self):
        inst = two_group_instance(8)
        # each cluster gets two from each group
        phi = [0, 0, 1, 1, 0, 0, 1, 1]
        b = balance(inst, Assignment(inst, (0, 1), phi))
        assert b[0] == pytest.approx(1.0) and b[1] == pytest.approx(1.0)

    def test_single_group_cluster_is_zero(self):
        inst = two_group_instance(8)
        phi = [0, 0, 0, 0, 1, 1, 1, 1]  # cluster 0 entirely group 1
        b = balance(inst, Assignment(inst, (0, 1), phi))
        assert b[0] == 0.0 and b[1] == 0.0

    def test_75_25_split_is_half(self):
        inst = two_group_instance(8)
        phi = [0, 0, 0, 1, 0, 1, 1, 1]  # cluster 0: three of g1, one of g2
        b = balance(inst, Assignment(inst, (0, 1), phi))
        assert b[0] == pytest.approx(0.5)
        assert b[1] == pytest.approx(0.5)

    def test_balance_one_iff_ratios_match(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            inst = random_euclidean_instance(rng, n=8, m=3, k=2)
            phi = nearest_assignment(inst, [0, 1])
            asg = Assignment(inst, (0, 1), phi)
            for f, b in balance(inst, asg).items():
                members = np.flatnonzero(asg.phi == f)
                ratios = inst.membership[members].sum(axis=0) / len(members)
                matches = np.allclose(ratios, inst.group_ratios)
                assert (abs(b - 1.0) < 1e-12) == matches


class TestAdditiveViolation:
    def test_zero_when_constraints_met(self):
        inst = two_group_instance(8)
        phi = [0, 0, 1, 1, 0, 0, 1, 1]
        profile = FairnessProfile(alpha=(0.5, 0.5), beta=(0.5, 0.5))
        assert additive_violation(inst, profile, Assignment(inst, (0, 1), phi)) == 0.0

    def test_empty_clusters_skipped(self):
        # facility 1 is opened but serves nobody: it must not contribute a
        # violation (its bounds are vacuously met) nor a balance entry
        inst = two_group_instance(8)
        phi = [0] * 8
        asg = Assignment(inst, (0, 1), phi)
        profile = FairnessProfile(alpha=(0.6, 0.6), beta=(0.4, 0.4))
        assert additive_violation(inst, profile, asg) == 0.0
        assert set(balance(inst, asg)) == {0}

    def test_single_group_imbalance(self):
        # one group, alpha=beta=0.5, cluster of 4 holding 3 members -> 1
        inst = line_instance(range(8), [0, 7], [set(range(4))], k=2, p=1)
        profile = FairnessProfile(alpha=(0.5,), beta=(0.5,))
        phi = [0, 0, 0, 1, 0, 1, 1, 1]
        assert additive_violation(inst, profile, Assignment(inst, (0, 1), phi)) == pytest.approx(1.0)

    def test_matches_bruteforce_double_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            inst = random_euclidean_instance(rng, n=7, m=3, k=3)
            profile = delta_to_profile(inst, float(rng.choice([0.0, 0.3, 0.6])))
            opened = sorted(rng.choice(inst.m, size=2, replace=False).tolist())
            phi = [int(rng.choice(opened)) for _ in range(inst.n)]
            asg = Assignment(inst, tuple(opened), phi)
            fast = additive_violation(inst, profile, asg)
            slow = slow_violation(inst, profile, opened, phi)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_count_table_metrics_equal_the_pairwise_loops(self):
        # reference: each (cluster, group) pair counted and scored on its own,
        # in the same float operations; the results must be bit-identical
        rng = np.random.default_rng(12)
        for _ in range(25):
            inst = random_euclidean_instance(rng, n=9, m=4, k=3)
            profile = delta_to_profile(inst, float(rng.choice([0.0, 0.3, 0.6])))
            opened = sorted(rng.choice(inst.m, size=3, replace=False).tolist())
            phi = [int(rng.choice(opened[:2])) for _ in range(inst.n)]  # opened[2] empty
            asg = Assignment(inst, tuple(opened), phi)
            sizes, counts = asg.group_counts
            lam, bal = 0.0, {}
            for pos, f in enumerate(opened):
                members = [v for v in range(inst.n) if phi[v] == f]
                assert sizes[pos] == len(members)
                b = 1.0
                for i in range(inst.ell):
                    cnt = sum(1 for v in members if inst.membership[v, i])
                    assert counts[pos, i] == cnt
                    if not members:
                        continue
                    lam = max(lam, cnt - profile.alpha[i] * len(members),
                              profile.beta[i] * len(members) - cnt)
                    rif = cnt / len(members)
                    r = inst.group_ratios[i]
                    b = 0.0 if rif == 0.0 or b == 0.0 else min(b, r / rif, rif / r)
                if members:
                    bal[f] = float(b)
            assert additive_violation(inst, profile, asg) == max(0.0, lam)
            assert balance(inst, asg) == bal

    def test_zero_iff_rd_mp_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            inst = random_euclidean_instance(rng, n=8, m=3, k=2)
            profile = delta_to_profile(inst, 0.4)
            phi = nearest_assignment(inst, [0, 2])
            asg = Assignment(inst, (0, 2), phi)
            lam = additive_violation(inst, profile, asg)
            holds = True
            for f, members in asg.clusters().items():
                size = len(members)
                if size == 0:
                    continue
                for i in range(inst.ell):
                    cnt = int(inst.membership[members, i].sum())
                    if cnt > profile.alpha[i] * size + 1e-12 or cnt < profile.beta[i] * size - 1e-12:
                        holds = False
            assert (lam <= 1e-12) == holds


class TestDeltaToProfile:
    def test_delta_zero_pins_ratios(self):
        inst = line_instance(range(10), [0], [set(range(3)), set(range(3, 10))], k=1, p=1)
        prof = delta_to_profile(inst, 0.0)
        assert prof.alpha[0] == pytest.approx(0.3)
        assert prof.beta[0] == pytest.approx(0.3)

    def test_delta_point_two(self):
        inst = line_instance(range(10), [0], [set(range(5)), set(range(5, 10))], k=1, p=1)
        prof = delta_to_profile(inst, 0.2)
        assert prof.beta[0] == pytest.approx(0.4)
        assert prof.alpha[0] == pytest.approx(0.625)

    def test_alpha_capped_at_one(self):
        inst = line_instance(range(10), [0], [set(range(9)), set(range(9, 10))], k=1, p=1)
        prof = delta_to_profile(inst, 0.5)
        assert prof.beta[0] == pytest.approx(0.45)
        assert prof.alpha[0] == 1.0

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.1])
    def test_bad_delta_rejected(self, bad):
        inst = two_group_instance(6)
        with pytest.raises(ValueError):
            delta_to_profile(inst, bad)


class TestTypes:
    def test_profile_rejects_beta_above_alpha(self):
        with pytest.raises(ValueError, match="beta"):
            FairnessProfile(alpha=(0.4,), beta=(0.5,))

    def test_group_subset_validation(self):
        with pytest.raises(ValueError, match="outside"):
            line_instance([0, 1], [0], [{0, 5}], k=1, p=1)
        with pytest.raises(ValueError, match="empty"):
            line_instance([0, 1], [0], [set()], k=1, p=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_points_rejects_non_finite(self, bad):
        pts = np.zeros((3, 2))
        pts[1, 1] = bad
        with pytest.raises(ValueError, match="^points row 1 has a non-finite"):
            ClusteringInstance.from_points(pts, [{0, 1, 2}], k=1, p=2)
        fac = np.zeros((3, 2))
        fac[2, 0] = bad
        with pytest.raises(ValueError, match="^facility_points row 2 has a non-finite"):
            ClusteringInstance.from_points(np.zeros((2, 2)), [{0, 1}], k=1, p=2,
                                           facility_points=fac)

    def test_delta_overlap_counts_memberships(self):
        rng = np.random.default_rng(0)
        inst = random_euclidean_instance(rng, n=8, delta_overlap=2)
        assert inst.delta == 2
        inst1 = random_euclidean_instance(rng, n=8, delta_overlap=1)
        assert inst1.delta == 1

    def test_distance_matrix_validation(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ClusteringInstance.from_distance_matrix(bad, [{0, 1}], k=1, p=1)
        tri = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            ClusteringInstance.from_distance_matrix(tri, [{0, 1, 2}], k=1, p=1)
        # same matrix passes with validation off
        ClusteringInstance.from_distance_matrix(tri, [{0, 1, 2}], k=1, p=1, validate=False)

    @pytest.mark.parametrize("size,checked", [(500, True), (501, False)])
    def test_triangle_check_default_boundary(self, size, checked, monkeypatch):
        import faircluster.instance as instance_mod

        flags = []
        monkeypatch.setattr(instance_mod, "_validate_distance_matrix",
                            lambda dmat, check_triangle: flags.append(check_triangle))
        xs = np.arange(size, dtype=float)
        ClusteringInstance.from_distance_matrix(np.abs(xs[:, None] - xs), [set(range(size))],
                                                k=1, p=1)
        assert flags == [checked]

    def test_with_k_and_with_p_share_computed_arrays(self):
        rng = np.random.default_rng(4)
        inst = random_euclidean_instance(rng, n=9, m=4, k=2, p=1.0)
        fresh = inst.with_k(3)
        assert "dist_cf" not in fresh.__dict__  # nothing computed, nothing carried
        names = ("membership", "delta", "group_ratios", "dist_cf", "dist_ff")
        computed = {name: getattr(inst, name) for name in names}
        for other in (inst.with_k(3), inst.with_p(math.inf), inst.with_k(1).with_p(2)):
            for name, value in computed.items():
                assert getattr(other, name) is value
        assert inst.with_k(3).k == 3 and inst.with_p(2).p == 2.0
        assert inst.with_p(math.inf).dist_cf.flags.writeable is False

    def test_group_counts_built_once_and_read_only(self, monkeypatch):
        from functools import cached_property

        inst = two_group_instance(8)
        builds = []
        real = Assignment.group_counts.func

        def counting(self):
            builds.append(1)
            return real(self)

        prop = cached_property(counting)
        prop.__set_name__(Assignment, "group_counts")
        monkeypatch.setattr(Assignment, "group_counts", prop)
        asg = Assignment(inst, (0, 1), [0, 0, 1, 1, 0, 0, 1, 1])
        build_report(inst, delta_to_profile(inst, 0.2), asg, vanilla_cost=asg.cost_p)
        assert builds == [1]  # the report, balance and violation share one table
        sizes, counts = asg.group_counts
        assert not sizes.flags.writeable and not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0, 0] = 99

    def test_facilities_default_to_clients(self):
        pts = np.array([[0.0], [1.0]])
        inst = ClusteringInstance.from_points(pts, [{0, 1}], k=1, p=1)
        assert inst.facilities_are_clients and inst.m == inst.n

    def test_assignment_cost_recomputed(self):
        inst = two_group_instance(4)
        asg = Assignment(inst, (0, 1), [0, 0, 1, 1])
        d = [inst.dist_cf[v, f] for v, f in enumerate([0, 0, 1, 1])]
        assert asg.cost_p == math.fsum(d)
        with pytest.raises(ValueError):
            Assignment(inst, (0, 1), [0, 0, 9, 1])

    def test_disjoint_cover_ratios_sum_to_one(self):
        rng = np.random.default_rng(8)
        inst = random_euclidean_instance(rng, n=9, delta_overlap=1)
        assert inst.group_ratios.sum() == pytest.approx(1.0)
        phi = nearest_assignment(inst, [0, 1])
        asg = Assignment(inst, (0, 1), phi)
        for f, members in asg.clusters().items():
            if len(members) == 0:
                continue
            ratios = inst.membership[members].sum(axis=0) / len(members)
            assert ratios.sum() == pytest.approx(1.0)

    def test_report_totals(self):
        inst = two_group_instance(8)
        phi = [0, 0, 1, 1, 0, 0, 1, 1]
        asg = Assignment(inst, (0, 1), phi)
        rep = build_report(inst, FairnessProfile.vacuous(2), asg, vanilla_cost=asg.cost_p)
        assert sum(rep.cluster_sizes.values()) == inst.n
        totals = np.array([rep.group_counts[f] for f in rep.group_counts]).sum(axis=0)
        assert tuple(totals) == rep.group_sizes
        assert rep.cost_of_fairness == pytest.approx(1.0)

    def test_report_rejects_bad_totals(self):
        from faircluster import FairnessReport
        with pytest.raises(ValueError, match="sum to n"):
            FairnessReport(n=5, group_sizes=(3, 2), cluster_sizes={0: 2, 1: 2},
                           group_counts={0: (1, 1), 1: (2, 1)}, balance={},
                           lambda_max=0.0, cost_of_fairness=1.0, timings_ms={})
        with pytest.raises(ValueError, match="group sizes"):
            FairnessReport(n=4, group_sizes=(3, 1), cluster_sizes={0: 2, 1: 2},
                           group_counts={0: (1, 1), 1: (1, 1)}, balance={},
                           lambda_max=0.0, cost_of_fairness=1.0, timings_ms={})
