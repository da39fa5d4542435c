"""Named exact-arithmetic certificate fixtures.

Each fixture builds a concrete configuration in exact rational arithmetic,
evaluates a list of claims through the public operations, and reports every
claim with both sides of its identity.  A fixture passes only when every
claim reproduces bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .convexsets import Box, MidConvention, midpoint_set
from .properties import check_betweenness, check_property
from .sampling import SamplePlan
from .spaces import (
    PiecewisePoly,
    constant_fn,
    distance,
    l1_function_space,
    linf_function_space,
    pl_distance,
    poly_fn,
    vector_space,
)

F = Fraction


@dataclass(frozen=True)
class Claim:
    label: str
    ok: bool
    lhs: object
    rhs: object


@dataclass(frozen=True)
class FixtureReport:
    name: str
    description: str
    claims: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims)

    def to_json(self) -> dict:
        return {
            "fixture": self.name,
            "description": self.description,
            "ok": self.ok,
            "claims": [vars(c) for c in self.claims],
        }


def _claim(label, lhs, rhs) -> Claim:
    return Claim(label, lhs == rhs, lhs, rhs)


def fixture_linf_box() -> FixtureReport:
    """Sup-metric midpoint set that is a fat box, so no unique midpoint exists."""
    space = vector_space(5, math.inf, exact=True)
    x = (0, 0, 0, 0, 0)
    y = (2, 0, 0, 0, 0)
    t = F(1, 4)
    rep = midpoint_set(space, x, y, t, MidConvention.FROM_X)
    expected = Box(
        (F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2)),
        (F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)),
    )
    claims = [
        _claim("midpoint set is the expected box (lower bounds)", rep.lower, expected.lower),
        _claim("midpoint set is the expected box (upper bounds)", rep.upper, expected.upper),
    ]
    verdict = check_property(
        space,
        "A",
        conv=MidConvention.FROM_X,
        plan=SamplePlan(count=1, anchor_x=x, anchor_y=y, t_values=(t,)),
    )
    claims.append(_claim("uniqueness check fails", verdict.outcome, "fails"))
    if verdict.fails:
        w = verdict.witness
        claims.append(_claim("witness pair distance", w["distance"], 1))
        claims.append(
            _claim(
                "witnesses on the sphere around x",
                (w["distance_to_x_1"], w["distance_to_x_2"]),
                (F(1, 2), F(1, 2)),
            )
        )
        claims.append(
            _claim(
                "witnesses on the sphere around y",
                (w["distance_to_y_1"], w["distance_to_y_2"]),
                (F(3, 2), F(3, 2)),
            )
        )
    return FixtureReport(
        name="linf-box",
        description=(
            "In (R^5, d_inf) the midpoint set of 0 and 2e1 at t = 1/4 is the box "
            "{1/2} x [-1/2, 1/2]^4, which contains distinct points at distance 1."
        ),
        claims=tuple(claims),
    )


def _aij_points():
    """Twelve points with one coordinate 0, one 1/2, the rest 1/4, padded
    with a trailing zero coordinate."""
    points = []
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            coords = [F(1, 4)] * 4
            coords[i] = F(0)
            coords[j] = F(1, 2)
            points.append(tuple(coords) + (F(0),))
    return points


def fixture_l1_aij() -> FixtureReport:
    """Taxicab sphere intersection containing twelve distinct points."""
    space = vector_space(5, 1, exact=True)
    x = (F(0),) * 5
    y = (F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(0))
    t = F(1, 2)
    pts = _aij_points()
    claims = [_claim("distance between the endpoints", distance(space, x, y), 2)]
    rep = midpoint_set(space, x, y, t, MidConvention.FROM_X)
    for idx, a in enumerate(pts):
        claims.append(_claim(f"point {idx} at distance 1 from x", distance(space, a, x), 1))
        claims.append(_claim(f"point {idx} at distance 1 from y", distance(space, a, y), 1))
        claims.append(_claim(f"point {idx} accepted by the midpoint oracle", rep.contains(a), True))
    claims.append(_claim("at least two points distinct", len(set(pts)) >= 2, True))
    claims.append(
        _claim("distance between the first two points", distance(space, pts[0], pts[1]), F(1, 2))
    )
    verdict = check_property(
        space,
        "A",
        conv=MidConvention.FROM_X,
        plan=SamplePlan(count=1, anchor_x=x, anchor_y=y, t_values=(t,)),
    )
    claims.append(_claim("uniqueness check fails", verdict.outcome, "fails"))
    return FixtureReport(
        name="l1-aij",
        description=(
            "In (R^5, d_1), with x = 0 and y = (1/2, 1/2, 1/2, 1/2, 0), twelve "
            "distinct points lie at taxicab distance exactly 1 from both x and y."
        ),
        claims=tuple(claims),
    )


def fixture_ex1_betweenness() -> FixtureReport:
    """Midpoints at two parameters need not be metrically between each other."""
    space = vector_space(5, math.inf, exact=True)
    x = (0, 0, 0, 0, 0)
    y = (2, 0, 0, 0, 0)
    p1 = (F(1, 2), 0, 0, 0, 0)
    p2 = (1, 1, 1, 1, 1)
    verdict = check_betweenness(
        space, x, y, F(1, 4), F(1, 2), p1, p2, conv=MidConvention.FROM_X
    )
    w = verdict.witness
    claims = [
        _claim("sum of distances via the deeper midpoint", w["sum_via_p2"], 2),
        _claim("direct distance", w["direct"], F(3, 2)),
        _claim("betweenness fails", verdict.outcome, "fails"),
    ]
    return FixtureReport(
        name="ex1-betweenness",
        description=(
            "In (R^5, d_inf): p1 = (1/2, 0, ...) and p2 = (1, 1, ..., 1) are "
            "midpoints of 0 and 2e1 at t = 1/4 and t = 1/2, yet "
            "d(p1, p2) + d(p2, y) = 2 while d(p1, y) = 3/2."
        ),
        claims=tuple(claims),
    )


def _tent_fn(a: Fraction) -> PiecewisePoly:
    """Piecewise-linear tent: 2 at both ends of [0, 1], zero at a."""
    left = (2, F(-2, 1) / a, 0)
    right = (2 - F(2, 1) / (1 - a), F(2, 1) / (1 - a), 0)
    return PiecewisePoly((0, a, 1), (left, right))


def fixture_l1_ha() -> FixtureReport:
    """A one-parameter family of integral-metric midpoints between the
    constants 0 and 2."""
    space = l1_function_space(exact=True)
    f = constant_fn(0)
    g = constant_fn(2)
    claims = [_claim("distance between the constants", pl_distance(space, f, g), 2)]
    for a in (F(1, 4), F(1, 2), F(3, 4)):
        h = _tent_fn(a)
        claims.append(_claim(f"tent at a={a}: distance to 0", pl_distance(space, f, h), 1))
        claims.append(_claim(f"tent at a={a}: distance to 2", pl_distance(space, g, h), 1))
    h14, h34 = _tent_fn(F(1, 4)), _tent_fn(F(3, 4))
    claims.append(
        _claim("two family members differ", pl_distance(space, h14, h34) > 0, True)
    )
    return FixtureReport(
        name="L1-ha",
        description=(
            "In the integral metric on [0, 1], every tent function through "
            "(0, 2), (a, 0), (1, 2) lies at distance exactly 1 from both "
            "constants 0 and 2, so the half-way set is not a single function."
        ),
        claims=tuple(claims),
    )


def fixture_linf_hp() -> FixtureReport:
    """Two distinct sup-metric midpoints between 0 and the parabola 2x^2."""
    space = linf_function_space(exact=True)
    f = constant_fn(0)
    g = poly_fn(0, 0, 2)
    h1 = poly_fn(0, 0, 1)  # x^2
    # x/2 on [0, 1/2], then x^2; continuous since 1/4 = 1/4
    h2 = PiecewisePoly((0, F(1, 2), 1), ((0, F(1, 2), 0), (0, 0, 1)))
    claims = [
        _claim("distance between the endpoints", pl_distance(space, f, g), 2),
        _claim("first midpoint: distance to 0", pl_distance(space, f, h1), 1),
        _claim("first midpoint: distance to the parabola", pl_distance(space, g, h1), 1),
        _claim("second midpoint: distance to 0", pl_distance(space, f, h2), 1),
        _claim("second midpoint: distance to the parabola", pl_distance(space, g, h2), 1),
        _claim(
            "the two midpoints differ",
            pl_distance(space, h1, h2),
            F(1, 16),
        ),
    ]
    return FixtureReport(
        name="Linf-hp",
        description=(
            "In the sup metric on [0, 1], both x^2 and the function x/2 glued "
            "to x^2 at 1/2 lie at distance exactly 1 from 0 and from 2x^2."
        ),
        claims=tuple(claims),
    )


FIXTURES = {
    "linf-box": fixture_linf_box,
    "l1-aij": fixture_l1_aij,
    "ex1-betweenness": fixture_ex1_betweenness,
    "L1-ha": fixture_l1_ha,
    "Linf-hp": fixture_linf_hp,
}
