from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from mclab import (
    Box,
    ExactArithmeticUnsupported,
    FiniteSet,
    MclabError,
    MembershipError,
    MidConvention,
    SamplePlan,
    Singleton,
    UniqueMidpointUndefined,
    check_betweenness,
    check_diameter_strict,
    check_homogeneity,
    check_menger_convex,
    check_property,
    distance,
    estimate_uniform_modulus,
    hausdorff,
    lifted_union,
    midpoint_set,
    space_from_id,
    vector_space,
)
import mclab.properties as properties
from mclab.sampling import sample_finite_points, sample_point, sample_t
from mclab.verdicts import first_failure

FX = MidConvention.FROM_X
FY = MidConvention.FROM_Y


class TestMengerConvexity:
    def test_taxicab_exact_space_holds(self):
        space = vector_space(4, 1, exact=True)
        verdict = check_menger_convex(space, SamplePlan(count=1000, seed=3))
        assert verdict.holds
        assert verdict.max_slack == 0
        assert verdict.plan["seed"] == 3

    def test_sup_plane_holds(self):
        space = vector_space(2, math.inf)
        verdict = check_menger_convex(space, SamplePlan(count=300, seed=4))
        assert verdict.holds

    def test_equal_anchors_are_its_pair(self):
        plan = SamplePlan(count=5, anchor_x=(0, 0, 0), anchor_y=(0, 0, 0))
        with pytest.raises(MclabError, match="two distinct endpoints"):
            check_menger_convex(space_from_id("vec3-p1-exact"), plan)


class TestSamplePlan:
    @pytest.mark.parametrize("count", [0, -3])
    def test_a_plan_needs_a_positive_count(self, count):
        # count 0 let every sampled checker hold on no samples
        with pytest.raises(MclabError):
            SamplePlan(count=count)

    @pytest.mark.parametrize(
        "denominators",
        [{"coord_denominator": 0}, {"coord_denominator": -4}, {"t_denominator": 1}],
    )
    def test_a_plan_refuses_denominators_the_exact_sampler_cannot_use(self, denominators):
        # these raised ZeroDivisionError or randrange's ValueError mid-check
        with pytest.raises(MclabError, match="denominator"):
            SamplePlan(count=3, **denominators)

    @pytest.mark.parametrize("anchor", ["anchor_x", "anchor_y"])
    def test_a_plan_refuses_one_anchor(self, anchor):
        # a verdict would record an anchor that no pair draw can honour
        with pytest.raises(MclabError, match="anchor_x and anchor_y"):
            SamplePlan(count=5, **{anchor: (0, 0, 0)})

    def test_a_plan_refuses_empty_t_values(self):
        # the verdict recorded t_values [] while every trial drew a random t
        with pytest.raises(MclabError, match="t_values"):
            SamplePlan(count=3, t_values=())


class TestPropertyA:
    def test_holds_on_strictly_convex_spaces(self):
        for p in (1.5, 2, 3):
            space = vector_space(3, p)
            verdict = check_property(space, "A", plan=SamplePlan(count=300, seed=6))
            assert verdict.holds, p
            assert verdict.max_slack <= 1e-6

    def test_fails_on_taxicab_with_exact_sphere_witnesses(self):
        space = vector_space(5, 1, exact=True)
        x = (F(0),) * 5
        y = (F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(0))
        verdict = check_property(
            space,
            "A",
            conv=FX,
            plan=SamplePlan(count=1, anchor_x=x, anchor_y=y, t_values=(F(1, 2),)),
        )
        assert verdict.fails
        w = verdict.witness
        assert w["point_1"] != w["point_2"]
        # all four sphere equalities hold exactly
        assert w["distance_to_x_1"] == w["distance_to_x_2"] == 1
        assert w["distance_to_y_1"] == w["distance_to_y_2"] == 1
        assert distance(space, w["point_1"], w["point_2"]) == w["distance"]

    def test_fails_on_sup_metric_with_unit_separated_witnesses(self):
        space = vector_space(3, math.inf, exact=True)
        verdict = check_property(
            space,
            "A",
            conv=FX,
            plan=SamplePlan(
                count=1,
                anchor_x=(0, 0, 0),
                anchor_y=(2, 0, 0),
                t_values=(F(1, 4),),
            ),
        )
        assert verdict.fails
        w = verdict.witness
        assert w["distance"] == 1
        assert w["distance_to_x_1"] == w["distance_to_x_2"] == F(1, 2)
        assert w["distance_to_y_1"] == w["distance_to_y_2"] == F(3, 2)


class TestPropertyB:
    @pytest.mark.parametrize("p", [1.5, 2, 3])
    def test_contraction_ratio_bounded_by_t(self, p):
        space = vector_space(3, p)
        verdict = check_property(space, "B", plan=SamplePlan(count=1000, seed=7))
        assert verdict.holds
        assert verdict.max_slack <= 1e-9
        assert verdict.witness["equality_attained"]

    def test_refused_without_unique_midpoints(self):
        space = vector_space(3, math.inf)
        verdict = check_property(space, "B", plan=SamplePlan(count=10))
        assert verdict.refused
        assert "unique midpoint" in verdict.reason


class TestPropertyBPrime:
    def test_holds_under_the_midpoint_consistent_convention(self):
        space = vector_space(2, 2)
        verdict = check_property(
            space, "Bprime", conv=FY, plan=SamplePlan(count=1000, seed=8)
        )
        assert verdict.holds
        assert verdict.max_slack <= 1e-9

    def test_literal_convention_fails_below_one_half(self):
        space = vector_space(2, 2)
        verdict = check_property(
            space, "Bprime", conv=FX, plan=SamplePlan(count=1000, seed=8)
        )
        assert verdict.fails
        w = verdict.witness
        assert w["t"] < 0.5
        assert w["ratio"] == pytest.approx(1 - w["t"], abs=1e-6)
        # certificate re-evaluates through the public operations
        cx = midpoint_set(space, w["x"], w["y"], w["t"], FX)
        cz = midpoint_set(space, w["z"], w["y"], w["t"], FX)
        assert hausdorff(space, cx, cz).value == pytest.approx(w["lhs"], abs=1e-12)
        assert w["t"] * distance(space, w["x"], w["z"]) == pytest.approx(
            w["rhs"], abs=1e-12
        )

    def test_the_witness_pair_is_the_plans_anchors(self):
        plan = SamplePlan(count=200, seed=3, anchor_x=(0, 0, 0), anchor_y=(2, 0, 0))
        verdict = check_property(space_from_id("vec3-pinf-exact"), "Bprime", plan=plan)
        assert verdict.fails
        assert verdict.witness["x"] == (0, 0, 0)
        assert verdict.witness["y"] == (2, 0, 0)
        assert verdict.plan["anchor_x"] == [0, 0, 0]


class TestPropertyBDoublePrime:
    def test_lifted_union_contraction_on_finite_sets(self):
        space = vector_space(2, 2)
        verdict = check_property(
            space,
            "Bdoubleprime",
            conv=FY,
            plan=SamplePlan(count=1000, seed=9),
        )
        assert verdict.holds
        assert verdict.max_slack <= 1e-9

    def test_anchors_are_refused(self):
        # it draws no (x, y) pair, so its verdict must not record one
        plan = SamplePlan(count=5, anchor_x=(0, 0), anchor_y=(1, 0))
        with pytest.raises(MclabError, match="anchor_x"):
            check_property(vector_space(2, 2), "Bdoubleprime", plan=plan)

    @pytest.mark.parametrize("space_id", ["vec2-p1.5", "vec3-p2", "vec6-p2"])
    @pytest.mark.parametrize("conv", [FX, FY])
    def test_one_chord_row_gives_the_verdict_of_two_lifted_unions(self, space_id, conv):
        # the loop as it read before both sets' chords shared one row
        space, tol = space_from_id(space_id), 1e-9

        def trials(plan):
            rng = plan.rng()
            for k in range(plan.count):
                pts_a = sample_finite_points(rng, space, plan)
                pts_b = sample_finite_points(rng, space, plan)
                A, B = FiniteSet(pts_a), FiniteSet(pts_b)
                y = sample_point(rng, space, plan)
                t = sample_t(rng, space, plan, k)
                CA = lifted_union(space, A, y, t, conv)
                CB = lifted_union(space, B, y, t, conv)
                lhs = hausdorff(space, CA, CB).value
                rhs = t * hausdorff(space, A, B).value
                yield lhs - rhs, lambda: {"lhs": lhs, "rhs": rhs}

        for seed in range(1, 51):
            plan = SamplePlan(count=60, seed=seed)
            got = check_property(space, "Bdoubleprime", conv, plan, tol=tol)
            want = first_failure("Bdoubleprime", trials(plan), tol, plan, conv)
            assert (got.outcome, got.samples) == (want.outcome, want.samples)
            assert got.max_slack.hex() == want.max_slack.hex()


class TestPropertyC:
    def test_euclidean_segments_are_convex(self):
        space = vector_space(3, 2)
        verdict = check_property(space, "C", plan=SamplePlan(count=500, seed=10))
        assert verdict.holds

    def test_sup_segment_is_not_convex(self):
        space = vector_space(3, math.inf)
        verdict = check_property(
            space,
            "C",
            plan=SamplePlan(
                count=3000, seed=10, anchor_x=(0.0, 0.0, 0.0), anchor_y=(2.0, 0.0, 0.0)
            ),
        )
        assert verdict.fails
        w = verdict.witness
        # the witness midpoint leaves the segment: re-evaluate both sides
        total = distance(space, w["x"], w["point"]) + distance(
            space, w["point"], w["y"]
        )
        assert total == pytest.approx(w["distance_sum"], abs=1e-12)
        assert total > w["segment_length"] + 1e-9

    @pytest.mark.parametrize("count", [20, 200])
    @pytest.mark.parametrize("exact", [True, False])
    def test_stops_at_its_sample_budget(self, count, exact):
        # a d_1 midpoint set yields several points per draw
        space = vector_space(3, 1, exact=exact)
        verdict = check_property(space, "C", plan=SamplePlan(count=count, seed=7))
        assert verdict.holds
        assert verdict.samples == count

    @pytest.mark.parametrize("scale", [F(1), F(1, 10**12)])
    def test_exact_defect_fails_at_every_scale(self, scale):
        # the exact defect is scale/8; a float tolerance would hide the small one
        space = vector_space(3, math.inf, exact=True)
        y = (scale, scale / 2, scale / 4)
        plan = SamplePlan(count=200, seed=7, anchor_x=(0, 0, 0), anchor_y=y)
        verdict = check_property(space, "C", plan=plan)
        assert verdict.fails
        w = verdict.witness
        total = distance(space, w["x"], w["point"]) + distance(space, w["point"], w["y"])
        assert total == w["distance_sum"]
        assert verdict.max_slack == total - w["segment_length"] > 0


class TestBetweenness:
    def test_sup_counterexample_two_versus_three_halves(self):
        space = vector_space(5, math.inf, exact=True)
        x = (0, 0, 0, 0, 0)
        y = (2, 0, 0, 0, 0)
        p1 = (F(1, 2), 0, 0, 0, 0)
        p2 = (1, 1, 1, 1, 1)
        verdict = check_betweenness(space, x, y, F(1, 4), F(1, 2), p1, p2, conv=FX)
        assert verdict.fails
        assert verdict.witness["sum_via_p2"] == 2
        assert verdict.witness["direct"] == F(3, 2)

    def test_euclidean_midpoints_are_collinear(self):
        space = vector_space(3, 2)
        x, y = (0.0, 0.0, 0.0), (2.0, 0.0, 0.0)
        p1 = midpoint_set(space, x, y, 0.25, FX).point
        p2 = midpoint_set(space, x, y, 0.5, FX).point
        verdict = check_betweenness(space, x, y, 0.25, 0.5, p1, p2, conv=FX)
        assert verdict.holds

    def test_taxicab_staircase_witnesses_recorded_exactly(self):
        space = vector_space(4, 1, exact=True)
        x = (F(0),) * 4
        y = (F(1, 2),) * 4
        p1 = (F(0), F(1, 2), F(1, 4), F(1, 4))  # on both t=1/2 spheres
        p2 = (F(1, 2), F(1, 2), F(1, 2), F(0))  # forward staircase at t=3/4
        verdict = check_betweenness(space, x, y, F(1, 2), F(3, 4), p1, p2, conv=FX)
        w = verdict.witness
        assert w["sum_via_p2"] == distance(space, p1, p2) + distance(space, p2, y)
        assert w["direct"] == distance(space, p1, y)
        assert verdict.fails
        assert (w["sum_via_p2"], w["direct"]) == (F(3, 2), 1)

    def test_membership_precondition_enforced(self):
        space = vector_space(3, 2)
        x, y = (0.0, 0.0, 0.0), (2.0, 0.0, 0.0)
        with pytest.raises(MembershipError):
            check_betweenness(
                space, x, y, 0.25, 0.5, (0.9, 0.9, 0.9), (1.0, 0.0, 0.0), conv=FX
            )


    def test_float_points_in_an_exact_space_are_refused(self):
        space = vector_space(2, 1, exact=True)
        with pytest.raises(ExactArithmeticUnsupported):
            check_betweenness(
                space, (0, 0), (2, 2), F(1, 4), F(1, 2), (0.5, 0.5), (1.0, 1.0)
            )


class TestHomogeneity:
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
    def test_norm_metrics_scale_exactly(self, p):
        space = vector_space(2, p)
        verdict = check_homogeneity(space, SamplePlan(count=1000, seed=12), tol=1e-12)
        assert verdict.holds

    def test_bounded_metric_fails_with_the_tripling_witness(self):
        space = vector_space(2, 2)
        verdict = check_homogeneity(space, SamplePlan(count=100, seed=12), cap=1)
        assert verdict.fails
        w = verdict.witness
        assert w["alpha"] == 3 and w["x"] == (1, 0)
        assert w["lhs"] == 1 and w["rhs"] == 3

    def test_zero_scalar_gives_exact_equality(self):
        space = vector_space(2, 2)
        # probe list starts with alpha = 0; a single-sample run covers it
        verdict = check_homogeneity(space, SamplePlan(count=1, seed=1), tol=0)
        assert verdict.samples >= 1

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("anchor_x", {"anchor_x": (0, 0), "anchor_y": (1, 0)}),
            ("t_values", {"t_values": (F(1, 2),)}),
        ],
    )
    def test_a_plan_field_it_never_draws_from_is_refused(self, field, fields):
        # it draws scalars and single points, never an (x, y) pair or a t
        with pytest.raises(MclabError, match=field):
            check_homogeneity(vector_space(2, 2), SamplePlan(count=5, **fields))


class TestDiameterStrict:
    def test_box_pair_ratio_is_one_half_exactly(self):
        space = vector_space(2, math.inf, exact=True)
        A = Box((0, 0), (2, 2))
        C = Box((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2)))
        verdict = check_diameter_strict(space, A, C)
        assert verdict.holds
        assert verdict.witness["k_hat"] == F(1, 2)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_box_pair_ratio_is_one_half_under_every_p(self, p):
        space = vector_space(2, p)
        A = Box((0.0, 0.0), (2.0, 2.0))
        C = Box((0.5, 0.5), (1.5, 1.5))
        verdict = check_diameter_strict(space, A, C)
        assert verdict.holds
        assert verdict.witness["k_hat"] == 0.5

    def test_singleton_inside_has_zero_ratio(self):
        space = vector_space(2, math.inf, exact=True)
        A = Box((0, 0), (2, 2))
        verdict = check_diameter_strict(space, A, Singleton((1, 1)))
        assert verdict.holds
        assert verdict.witness["k_hat"] == 0

    def test_touching_the_boundary_is_rejected(self):
        space = vector_space(2, math.inf, exact=True)
        A = Box((0, 0), (2, 2))
        with pytest.raises(MembershipError):
            check_diameter_strict(space, A, A)


class TestUniformModulus:
    def test_euclidean_modulus_matches_the_closed_form(self):
        space = vector_space(2, 2)
        got = estimate_uniform_modulus(space, [0.5, 1.0, 1.5])
        for eps, delta in got:
            oracle = 1 - math.sqrt(1 - eps * eps / 4)
            assert delta == pytest.approx(oracle, abs=1e-3)

    def test_extreme_separation_forces_the_center(self):
        space = vector_space(2, 2)
        ((_, delta),) = estimate_uniform_modulus(space, [2.0])
        assert delta == pytest.approx(1.0, abs=1e-3)

    def test_vanishing_separation_gives_vanishing_modulus(self):
        space = vector_space(2, 2)
        ((_, delta),) = estimate_uniform_modulus(space, [1e-3])
        assert 0 <= delta < 1e-3

    def test_refused_without_unique_midpoints(self):
        with pytest.raises(UniqueMidpointUndefined):
            estimate_uniform_modulus(vector_space(2, 1), [1.0])

    @pytest.mark.parametrize("eps", [-0.5, 2.5])
    def test_a_separation_outside_zero_to_two_is_refused(self, eps, monkeypatch):
        def no_distance(*args):
            raise AssertionError("a distance was measured before the refusal")

        monkeypatch.setattr(properties, "distance", no_distance)
        with pytest.raises(MclabError, match=str(eps)):
            estimate_uniform_modulus(vector_space(2, 2), [1.0, eps])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.25, 1.5, 2, 3, 4])
    def test_the_sweep_attains_the_closed_form(self, p, dim):
        eps_values = [0, 0.25, 0.5, 1, 1.5, 1.9]
        got = estimate_uniform_modulus(vector_space(dim, p), eps_values)
        assert [eps for eps, _ in got] == eps_values
        for eps, delta in got:
            assert delta == pytest.approx(_closed_form_modulus(p, dim, eps), abs=1e-9)


def _closed_form_modulus(p, dim, eps):
    """eps/2 on the line; Clarkson's modulus for p >= 2; for 1 < p < 2
    Hanner's root of (1 - d + eps/2)^p + |1 - d - eps/2|^p = 2, by bisection
    (the left side falls as d grows on [0, 1])."""
    if dim == 1:
        return eps / 2
    if p >= 2:
        return 1 - (1 - (eps / 2) ** p) ** (1 / p)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        d = (lo + hi) / 2
        if (1 - d + eps / 2) ** p + abs(1 - d - eps / 2) ** p > 2:
            lo = d
        else:
            hi = d
    return lo


class TestCertificateSelfVerification:
    def test_sup_metric_bprime_witness_re_evaluates_exactly(self):
        space = vector_space(2, math.inf, exact=True)
        verdict = check_property(
            space, "Bprime", conv=FY, plan=SamplePlan(count=50, seed=2)
        )
        if not verdict.fails:
            pytest.skip("no violation sampled at this plan")
        w = verdict.witness
        cx = midpoint_set(space, w["x"], w["y"], w["t"], FY)
        cz = midpoint_set(space, w["z"], w["y"], w["t"], FY)
        assert hausdorff(space, cx, cz).value == w["lhs"]
        assert w["t"] * distance(space, w["x"], w["z"]) == w["rhs"]
        assert w["lhs"] > w["rhs"]

    def test_property_a_witnesses_re_evaluate_exactly(self):
        space = vector_space(3, math.inf, exact=True)
        verdict = check_property(space, "A", conv=FX, plan=SamplePlan(count=20, seed=2))
        assert verdict.fails
        w = verdict.witness
        assert distance(space, w["point_1"], w["point_2"]) == w["distance"]
        rep = midpoint_set(space, w["x"], w["y"], w["t"], FX)
        assert rep.contains(w["point_1"]) and rep.contains(w["point_2"])
