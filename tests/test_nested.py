from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from mclab import (
    MetricBall,
    NestingError,
    SolverFailure,
    build_shrinking_family,
    cantor_point,
    common_point,
    distance,
    family_of_balls,
    vector_space,
)
from mclab.nested import family_from_json, max_violation

SP2 = vector_space(2, 2)


def drifting_family(n=50):
    centers = [(0.5**k, 0.0) for k in range(1, n + 1)]
    radii = [1 + 0.5**k for k in range(1, n + 1)]
    return build_shrinking_family(SP2, centers, radii)


class TestBuild:
    def test_constant_centers_with_vanishing_radii(self):
        centers = [(0.0, 0.0)] * 20
        radii = [1 / k for k in range(1, 21)]
        family = build_shrinking_family(SP2, centers, radii)
        assert family.diam_estimates[-1] == pytest.approx(0.1)
        assert all(a > b for a, b in zip(family.diam_estimates, family.diam_estimates[1:]))

    def test_drifting_family_nests_with_equality(self):
        family = drifting_family()
        # consecutive drift exactly equals the radius drop
        for (b1,), (b2,) in zip(family.sets, family.sets[1:]):
            drift = distance(SP2, b1.center, b2.center)
            assert drift == pytest.approx(b1.radius - b2.radius, abs=1e-15)

    def test_increasing_radii_rejected(self):
        with pytest.raises(NestingError):
            build_shrinking_family(SP2, [(0.0, 0.0)] * 2, [1.0, 2.0])

    def test_violated_nesting_rejected(self):
        with pytest.raises(NestingError):
            build_shrinking_family(SP2, [(0.0, 0.0), (5.0, 0.0)], [2.0, 1.0])


class TestCommonPoint:
    def test_constant_family_returns_the_center(self):
        centers = [(0.25, -0.3)] * 10
        radii = [1 / k for k in range(1, 11)]
        family = build_shrinking_family(SP2, centers, radii)
        pt = common_point(SP2, family, tol=1e-6)
        assert distance(SP2, pt, (0.25, -0.3)) <= 1e-6 + 0.2

    def test_drifting_family_satisfies_all_fifty_constraints(self):
        family = drifting_family(50)
        pt = common_point(SP2, family, tol=1e-6)
        violation, _ = max_violation(SP2, family, pt)
        assert violation <= 1e-6
        for (ball,) in family.sets:
            assert distance(SP2, pt, ball.center) <= ball.radius + 1e-6

    def test_disjoint_balls_yield_a_violation_certificate(self):
        family = family_of_balls(
            [[MetricBall(SP2, (0.0, 0.0), 1.0), MetricBall(SP2, (5.0, 0.0), 1.0)]]
        )
        with pytest.raises(SolverFailure) as err:
            common_point(SP2, family, tol=1e-6)
        assert err.value.certificate["violation"] >= 1.0


class TestCantorPoint:
    def test_fixed_center_halving_radii(self):
        c = (0.25, -0.3)
        family = build_shrinking_family(
            SP2, [c] * 50, [0.5**n for n in range(1, 51)]
        )
        pt = cantor_point(SP2, family, tol=1e-6)
        assert distance(SP2, pt, c) <= 1e-6

    def test_restart_agreement_bound(self):
        c = (0.25, -0.3)
        family = build_shrinking_family(
            SP2, [c] * 50, [0.5**n for n in range(1, 51)]
        )
        z1 = common_point(SP2, family, tol=1e-6, start=family.sets[0][0].center)
        z2 = common_point(SP2, family, tol=1e-6, start=(2.0, 2.0))
        assert distance(SP2, z1, z2) <= 2 * 2.0**-50 + 1e-6

    def test_sup_metric_boxes_as_balls_exact_zero_violation(self):
        space = vector_space(2, math.inf, exact=True)
        # boxes [0, 2^-n]^2 are sup-metric balls around their centers
        centers = [(F(1, 2 ** (n + 1)), F(1, 2 ** (n + 1))) for n in range(1, 31)]
        radii = [F(1, 2 ** (n + 1)) for n in range(1, 31)]
        family = build_shrinking_family(space, centers, radii)
        pt = cantor_point(space, family, tol=1e-6)
        violation, _ = max_violation(space, family, pt)
        assert violation == 0
        assert distance(space, pt, (0, 0)) <= F(1, 2**30) + F(1, 1000000)

    def test_stuck_diameters_rejected(self):
        family = build_shrinking_family(
            SP2, [(0.0, 0.0)] * 3, [1.2, 1.1, 1.0]
        )
        with pytest.raises(NestingError):
            cantor_point(SP2, family, tol=1e-6)


class TestJson:
    def test_round_trip(self):
        family = drifting_family(2)
        data = [
            [{"center": [0.5, 0.0], "radius": 1.5}],
            [{"center": [0.25, 0.0], "radius": 1.25}],
        ]
        back = family_from_json(data, SP2)
        assert back.sets == family.sets
