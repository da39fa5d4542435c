from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import mclab.nested as nested
from mclab.cli import main
from mclab.nested import family_from_json, max_violation
from mclab.spaces import vadd, vlerp, vscale

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
        cert = err.value.certificate
        assert cert["violation"] >= 1.0
        assert 0 < cert["sweeps"] <= nested._MAX_SWEEPS
        # the point is the best one seen, and its violation the one reported
        assert max_violation(SP2, family, cert["point"])[0] == cert["violation"]


def _feasible_families(space, count, seed):
    """`count` families of one set of four 3-D balls, centers uniform in
    [-2, 2]^3, each ball holding one point uniform in [-1, 1]^3 with slack
    1e-3, so that every family has a common point."""
    rng = random.Random(seed)
    families = []
    for _ in range(count):
        q = tuple(rng.uniform(-1, 1) for _ in range(3))
        balls = []
        for _ in range(4):
            c = tuple(rng.uniform(-2, 2) for _ in range(3))
            balls.append(MetricBall(space, c, distance(space, c, q) + 1e-3))
        families.append(family_of_balls([balls]))
    return families


def _measure_every_sweep(space, family, tol, measure):
    """`common_point` from the first center as a cyclic projection that
    measures every d(z, c_i) in every sweep, in its projections and again
    in its violation pass, with `measure` as the distance; its steps are
    `ball.project`, over-relaxed and judged stalled by the solver's own
    constants."""
    z = family.sets[0][0].center
    balls = tuple(family.all_balls())
    relax = nested._RELAX if space.exact else float(nested._RELAX)
    best = None
    stalled = 0

    def failure(message, sweeps):
        violation, point, ball = best
        return SolverFailure(
            message,
            certificate={
                "violation": violation,
                "ball_center": ball.center,
                "ball_radius": ball.radius,
                "sweeps": sweeps,
                "point": point,
            },
        )

    for sweep in range(1, nested._MAX_SWEEPS + 1):
        for ball in balls:
            d = measure(space, z, ball.center)
            if d > ball.radius:
                w = ball.project(z, d)
                z = w if sweep == 1 else vlerp(z, w, relax)
        violation, worst_ball = 0, None
        for ball in balls:
            gap = measure(space, z, ball.center) - ball.radius
            if gap > violation:
                violation, worst_ball = gap, ball
        if violation <= tol:
            return z
        if best is not None and violation >= best[0] - 1e-15:
            stalled += 1
            if stalled >= nested._PATIENCE:
                raise failure("cyclic projection stalled above tolerance", sweep)
        else:
            stalled = 0
        if best is None or violation < best[0]:
            best = (violation, z, worst_ball)
    raise failure("cyclic projection exhausted its sweep budget", nested._MAX_SWEEPS)


class TestFeasibleFamiliesAreSolved:
    """Every feasible family of the random recipe gets a common point: each
    step is a Euclidean projection onto a ball (d_1, d_2, d_inf) or onto a
    supporting half-space of it, never a stall on a feasible family."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 1.5, 2, math.inf])
    def test_two_hundred_random_families(self, p, seed):
        space = vector_space(3, p)
        for family in _feasible_families(space, 200, seed):
            pt = common_point(space, family, tol=1e-6)
            violation, _ = max_violation(space, family, pt)
            assert violation <= 1e-6

    # the d_1.5 family that spent a whole 10,000-sweep budget on radial steps
    THIN_FAMILY = [[
        {"center": [-1.2660596413697824, -0.3585260118633782, -0.9488562337575086],
         "radius": 2.003810228736702},
        {"center": [0.2860088011530064, 0.9058390317256313, -0.9754508233297807],
         "radius": 0.6280385341697331},
        {"center": [1.831324690987358, -1.1379813624399029, 0.8522822547558495],
         "radius": 3.1932181437647733},
        {"center": [-0.9392378598623328, 0.13065096977542234, -1.6920504383053259],
         "radius": 1.8476518483512294},
    ]]

    # rational families on which radial steps stall
    @pytest.mark.parametrize(
        "p, balls",
        [
            (1, [
                ((F(-1, 4), F(-1), F(13, 8)), F(719, 250)),
                ((F(5, 4), F(-3, 8), F(-3, 8)), F(2001, 1000)),
                ((F(-7, 8), F(9, 8), F(-3, 4)), F(2251, 1000)),
                ((F(-1), F(-1, 2), F(-1, 2)), F(501, 1000)),
            ]),
            (math.inf, [
                ((F(9, 8), F(7, 4), F(-7, 8)), F(813, 500)),
                ((F(-11, 8), F(-3, 2), F(-15, 8)), F(813, 500)),
                ((F(9, 8), F(1, 4), F(-13, 8)), F(1251, 1000)),
                ((F(-1, 4), F(7, 8), F(1, 8)), F(751, 1000)),
            ]),
        ],
        ids=["vec3-p1-exact", "vec3-pinf-exact"],
    )
    def test_exact_family_stays_rational(self, p, balls):
        space = vector_space(3, p, exact=True)
        family = family_of_balls([[MetricBall(space, c, r) for c, r in balls]])
        pt = common_point(space, family, tol=1e-6)
        assert all(isinstance(c, F) for c in pt)
        violation, _ = max_violation(space, family, pt)
        assert violation <= 1e-6
        if p == math.inf:
            assert violation == 0

    def test_thin_family_from_the_command_line(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(self.THIN_FAMILY))
        argv = ["nested", str(path), "--space", "vec3-p1.5", "--out", str(tmp_path)]
        assert main(argv) == 0
        report = json.loads((tmp_path / "nested.json").read_text())
        assert report["result"]["max_violation"] <= 1e-6


def _outcome(solve):
    try:
        return repr(solve())
    except SolverFailure as exc:
        return repr((exc, exc.certificate))


class TestDistanceReuse:
    """`common_point` measures each d(z, c_i) once per position of z: it
    returns what a loop measuring every distance in every sweep returns,
    with at most 80% of that loop's `distance` calls."""

    @pytest.mark.parametrize("p", [2, 1.5])
    def test_same_results_with_at_most_four_fifths_of_the_distances(self, p, monkeypatch):
        space = vector_space(3, p)
        families = _feasible_families(space, 200, seed=1)
        counts = {"oracle": 0, "solver": 0}

        def counting(key):
            def measure(*args):
                counts[key] += 1
                return distance(*args)

            return measure

        oracle = counting("oracle")
        want = [
            _outcome(lambda: _measure_every_sweep(space, family, 1e-6, oracle))
            for family in families
        ]
        monkeypatch.setattr(nested, "distance", counting("solver"))
        got = [_outcome(lambda: common_point(space, family, tol=1e-6)) for family in families]
        assert got == want
        assert 0 < counts["solver"] <= 0.8 * counts["oracle"]


@st.composite
def _vanishing_families(draw):
    """(space, family) of 3-6 nested single balls under d_p, p in
    {1, 1.5, 2, 3, inf}, in 2-3 dimensions, with last radius in
    [1e-9, 2.5e-7]: each center moves at most 0.9 of the radius lost."""
    p = draw(st.sampled_from([1, 1.5, 2, 3, math.inf]))
    space = vector_space(draw(st.integers(2, 3)), p)
    coords = st.lists(st.floats(-1, 1), min_size=space.dim, max_size=space.dim)
    steps = draw(st.lists(st.floats(0.01, 1), min_size=2, max_size=5))
    radii = [draw(st.floats(1e-9, 2.5e-7))]
    for step in reversed(steps):
        radii.insert(0, radii[0] + step)
    centers = [tuple(2 * x for x in draw(coords))]
    for step in steps:
        direction = draw(coords)
        norm = distance(space, direction, (0,) * space.dim)
        # a direction of tiny norm would scale to inf or lose its norm to
        # underflow; the center stays put instead
        scale = draw(st.floats(0, 0.9)) * step / norm if norm >= 0.01 else 0
        centers.append(vadd(centers[-1], vscale(direction, scale)))
    return space, build_shrinking_family(space, centers, radii)


class TestCantorPoint:
    def test_fixed_center_halving_radii(self):
        c = (0.25, -0.3)
        family = build_shrinking_family(
            SP2, [c] * 50, [0.5**n for n in range(1, 51)]
        )
        pt = cantor_point(SP2, family, tol=1e-6)
        assert distance(SP2, pt, c) <= 1e-6

    @given(_vanishing_families())
    @settings(max_examples=200, deadline=None)
    def test_the_point_meets_the_diameter_bound(self, drawn):
        # any point within tol of every ball lies within r + tol of the
        # last center, which bounds how far two such points can be apart
        space, family = drawn
        pt = cantor_point(space, family, tol=1e-6)
        violation, _ = max_violation(space, family, pt)
        assert violation <= 1e-6
        (last,) = family.sets[-1]
        assert distance(space, pt, last.center) <= last.radius + 1e-6 + 1e-12

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


    def test_an_increasing_estimate_rejected(self):
        # the second set's smallest ball is larger than the first's
        family = family_of_balls(
            [
                [MetricBall(SP2, (0.0, 0.0), 1e-9)],
                [MetricBall(SP2, (0.0, 0.0), 1.0)],
                [MetricBall(SP2, (0.0, 0.0), 1e-9)],
            ]
        )
        with pytest.raises(NestingError, match="must not increase"):
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
