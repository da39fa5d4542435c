from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab import (
    Affine,
    Box,
    BoxProjection,
    Composition,
    DomainEscape,
    HybridParams,
    MappingSpec,
    MclabError,
    MetricBall,
    MidConvention,
    Rotation,
    SamplePlan,
    SolverFailure,
    UniqueMidpointUndefined,
    WholeSpace,
    asymptotic_center,
    distance,
    distances,
    find_fixed_point,
    make_asymptotic_functional,
    midpoint_set,
    orbit,
    unique_midpoint,
    vector_space,
    verify_hybrid,
)
import mclab.fixedpoint as fixedpoint
from mclab.fixedpoint import (
    DOMAIN_TOL,
    AsymptoticFunctional,
    OrbitResult,
    _sample_domain_point,
    _tail_value,
    closed_form_center,
    mapping_from_json,
    pattern_search,
)

SP2 = vector_space(2, 2)
NONEXPANSIVE = HybridParams(1, 0)
NONSPREADING = HybridParams(2, 1)


def rotation_spec(turns=1 / 7, center=(0.0, 0.0), radius=1.0):
    return MappingSpec(
        Rotation(2 * math.pi * turns, center), MetricBall(SP2, center, radius)
    )


class TestHybridParams:
    def test_alpha_inside_unit_interval_rejected(self):
        with pytest.raises(MclabError):
            HybridParams(0.5, 0)

    def test_beta_range_enforced(self):
        with pytest.raises(MclabError):
            HybridParams(1, 1.5)

    def test_boundary_values_allowed(self):
        HybridParams(0, 0)
        HybridParams(1, 1)
        HybridParams(-3, 0.5)


class TestVerifyHybrid:
    def test_rotation_is_nonexpansive(self):
        verdict = verify_hybrid(SP2, rotation_spec(), NONEXPANSIVE, SamplePlan(count=500))
        assert verdict.holds
        assert verdict.max_slack <= 1e-9

    def test_rotation_passes_direct_nonexpansiveness_too(self):
        spec = rotation_spec()
        plan = SamplePlan(count=200, seed=21)
        rng = plan.rng()
        for _ in range(plan.count):
            x = _sample_domain_point(rng, spec.domain)
            y = _sample_domain_point(rng, spec.domain)
            assert distance(SP2, spec.apply(x), spec.apply(y)) <= distance(
                SP2, x, y
            ) + 1e-12

    def test_box_projection_is_metrically_nonspreading(self):
        spec = MappingSpec(
            BoxProjection((0.0, 0.0), (1.0, 1.0)),
            Box((-3.0, -3.0), (3.0, 3.0)),
        )
        verdict = verify_hybrid(SP2, spec, NONSPREADING, SamplePlan(count=10_000))
        assert verdict.holds

    def test_box_projection_is_the_boxs_nearest_point(self):
        projection = BoxProjection((0, 0.5), (1, 2))
        for z in [(-3, 1), (0.5, 2.5), (2, -1), (0.25, 1)]:
            assert projection.apply(z) == Box((0, 0.5), (1, 2)).nearest(z)
        with pytest.raises(MclabError, match="lower bound exceeds upper bound"):
            BoxProjection((1, 1), (0, 0))

    def test_doubling_fails_with_doubled_distances(self):
        spec = MappingSpec(
            Affine(((2, 0), (0, 2)), (0, 0)), WholeSpace(2, radius=4)
        )
        verdict = verify_hybrid(SP2, spec, NONEXPANSIVE, SamplePlan(count=100))
        assert verdict.fails
        w = verdict.witness
        assert w["d(Tx,Ty)^2"] == pytest.approx(4 * w["d(x,y)^2"], rel=1e-9)

    def test_non_self_map_detected(self):
        spec = MappingSpec(
            Affine(((1, 0), (0, 1)), (10.0, 0.0)),
            Box((-1.0, -1.0), (1.0, 1.0)),
        )
        with pytest.raises(DomainEscape):
            verify_hybrid(SP2, spec, NONEXPANSIVE, SamplePlan(count=10))

    def test_nan_image_that_d_inf_would_pass_over_is_a_float_range_failure(self):
        # (x1, x2) -> (x1, x1) -> (x1, 1e308 x1 - 1e308 x1), which is NaN once
        # |x1| > 1.8; max(|x1 - y1|, nan) is finite, so only the images show
        # the overflow
        spec = MappingSpec(
            Composition((
                Affine(((1, 0), (1, 0)), (0, 0)),
                Affine(((1, 0), (1e308, -1e308)), (0, 0)),
            )),
            WholeSpace(2),
        )
        space = vector_space(2, math.inf)
        with pytest.raises(SolverFailure, match="float range"):
            verify_hybrid(space, spec, NONEXPANSIVE, SamplePlan(count=20))

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    @pytest.mark.parametrize(
        "params",
        [NONEXPANSIVE, NONSPREADING, HybridParams(Fraction(4, 3), Fraction(1, 3))],
        ids=["1-0", "2-1", "4/3-1/3"],
    )
    def test_each_sample_weighs_its_squares_as_the_plain_formula(self, p, params):
        # a box projection with int bounds gives int squares under d_1 and
        # d_inf, beside float ones, and 4/3 * 25 is not float(4/3) * 25; one
        # sample per seed, so that every sample's sides are compared, not
        # only the worst
        space = vector_space(2, p)
        spec = MappingSpec(
            BoxProjection((0, 0), (5, 5)), Box((-20.0, -20.0), (20.0, 20.0))
        )
        a, b = params.alpha, params.beta
        for seed in range(60):
            rng = random.Random(seed)
            x = _sample_domain_point(rng, spec.domain)
            y = _sample_domain_point(rng, spec.domain)
            tx, ty = spec.apply(x), spec.apply(y)
            lhs = a * distance(space, tx, ty) ** 2 + (1 - a) * distance(space, x, ty) ** 2
            rhs = b * distance(space, tx, y) ** 2 + (1 - b) * distance(space, x, y) ** 2
            got = verify_hybrid(space, spec, params, SamplePlan(count=1, seed=seed))
            for value, want in [
                (got.witness["lhs"], lhs),
                (got.witness["rhs"], rhs),
                (got.max_slack, lhs - rhs),
            ]:
                assert (type(value), repr(value)) == (type(want), repr(want))


class TestOrbit:
    def test_rotation_orbit_stays_bounded(self):
        orb = orbit(SP2, rotation_spec(), (1.0, 0.0), 256)
        assert orb.bounded
        assert orb.radius <= 2.0

    def test_contraction_orbit_converges(self):
        spec = MappingSpec(
            Affine(((0.5, 0), (0, 0.5)), (0.5, 0.5)), WholeSpace(2, radius=8)
        )
        orb = orbit(SP2, spec, (-3.0, 3.0), 100)
        assert orb.bounded
        assert orb.points[-1] == pytest.approx((1.0, 1.0))

    def test_translation_flagged_unbounded(self, monkeypatch):
        monkeypatch.setattr(fixedpoint, "_RMAX", 100.0)
        spec = MappingSpec(
            Affine(((1, 0), (0, 1)), (1.0, 0.0)), WholeSpace(2, radius=1e7)
        )
        orb = orbit(SP2, spec, (0.0, 0.0), 500)
        assert not orb.bounded
        assert orb.radius > 100.0

    def test_start_outside_domain_rejected(self):
        with pytest.raises(DomainEscape):
            orbit(SP2, rotation_spec(), (5.0, 0.0), 10)


def _iterated_orbit(space, spec, x0, n):
    """The orbit by plain iteration of all n steps: the reference for the
    orbit's stop at its first exact repeat."""
    if not spec.domain.contains(x0, DOMAIN_TOL):
        raise DomainEscape("starting point lies outside the domain")
    points = [tuple(x0)]
    radius = distance(space, x0, x0)
    x = tuple(x0)
    for _ in range(n):
        x = spec.apply(x)
        if not spec.domain.contains(x, DOMAIN_TOL):
            raise DomainEscape(f"orbit escaped the domain at {x}")
        points.append(tuple(x))
        r = distance(space, x, x0)
        if r > radius:
            radius = r
        if radius > fixedpoint._RMAX:
            return OrbitResult(tuple(points), radius, False)
    return OrbitResult(tuple(points), radius, True)


@dataclass(frozen=True)
class Negation:
    """x -> -x, which sends 0.0 to -0.0 and back."""

    def apply(self, x):
        return tuple(-c for c in x)


def _signed_permutation_contraction(seed: int, dom: str, space=vector_space(3, 2)):
    """(spec, x0): x -> A x + b on R^3 with A a signed permutation times a
    diagonal with entries in (0.1, 0.9), fixed point in [-3, 3]^3, on a
    ball of `space`, a box or the whole space, as the perfbench `solvers`
    maps are drawn; float orbits of these maps often end in a cycle of
    points that differ in the last place."""
    rng = random.Random(seed)
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((-1.0, 1.0)) for _ in range(3)]
    diag = [rng.uniform(0.1, 0.9) for _ in range(3)]
    A = [[0.0] * 3 for _ in range(3)]
    for row in range(3):
        A[row][perm[row]] = signs[row] * diag[perm[row]]
    xstar = [rng.uniform(-3, 3) for _ in range(3)]
    b = [xstar[r] - sum(A[r][c] * xstar[c] for c in range(3)) for r in range(3)]
    # centred within (1 - max diag) of x*, so that T maps the domain into itself
    shift = (1 - max(diag)) * rng.random() / 3
    center = tuple(x + shift * rng.uniform(-1, 1) for x in xstar)
    domain = {
        "ball": MetricBall(space, center, 2.0),
        "box": Box(tuple(c - 2 for c in center), tuple(c + 2 for c in center)),
        "all": WholeSpace(3),
    }[dom]
    spec = MappingSpec(Affine(tuple(map(tuple, A)), tuple(b)), domain)
    return spec, center if dom != "all" else (0.0, 0.0, 0.0)


class TestOrbitStopsAtItsFirstRepeat:
    """The orbit that stops at its first exact repeat gives the points,
    radius and bound of the full iteration, bit for bit."""

    def assert_same_orbit(self, space, spec, x0, n=256):
        got = orbit(space, spec, x0, n)
        want = _iterated_orbit(space, spec, x0, n)
        assert [repr(q) for q in got.points] == [repr(q) for q in want.points]
        assert (type(got.radius), repr(got.radius)) == (type(want.radius), repr(want.radius))
        assert got.bounded == want.bounded
        return got

    @pytest.mark.parametrize("dom", ["ball", "box", "all"])
    def test_seeded_signed_permutation_contractions(self, dom):
        space = vector_space(3, 2)
        distinct = []
        for seed in range(40):
            spec, x0 = _signed_permutation_contraction(seed, dom)
            got = self.assert_same_orbit(space, spec, x0)
            distinct.append(len(set(map(repr, got.points[-32:]))))
        # the seeds reach fixed points and cycles of more than one point
        assert 1 in distinct and max(distinct) > 1

    def test_golden_rotation_never_repeats(self):
        got = self.assert_same_orbit(SP2, rotation_spec(), (1.0, 0.0))
        assert len(set(map(repr, got.points))) == 257

    def test_box_projection_is_fixed_after_one_step(self):
        spec = MappingSpec(
            BoxProjection((0, 0), (1, 1)), Box((-3.0, -3.0), (3.0, 3.0))
        )
        got = self.assert_same_orbit(SP2, spec, (2.5, -1.5))
        assert set(got.points[1:]) == {(1, 0)}

    def test_cycle_through_the_start(self):
        spec = MappingSpec(
            Affine(((0, 1, 0), (0, 0, 1), (1, 0, 0)), (0, 0, 0)), WholeSpace(3)
        )
        got = self.assert_same_orbit(vector_space(3, 1), spec, (1.0, 2.0, 3.0), n=100)
        assert got.points[99] == (1.0, 2.0, 3.0)

    def test_negation_alternates_zero_and_negative_zero(self):
        # 0.0 == -0.0 and both hash alike, so a repeat keyed by either
        # would stop at step 1 and copy 0.0 over every -0.0
        spec = MappingSpec(Negation(), WholeSpace(1))
        got = self.assert_same_orbit(vector_space(1, 2), spec, (0.0,))
        assert [repr(q) for q in got.points[:3]] == ["(0.0,)", "(-0.0,)", "(0.0,)"]

    def test_unbounded_orbit(self, monkeypatch):
        monkeypatch.setattr(fixedpoint, "_RMAX", 100.0)
        spec = MappingSpec(Affine(((1, 0), (0, 1)), (1.0, 0.0)), WholeSpace(2, 1e7))
        got = self.assert_same_orbit(SP2, spec, (0.0, 0.0), n=500)
        assert not got.bounded

    def test_orbit_that_leaves_the_domain(self):
        spec = MappingSpec(
            Affine(((1, 0), (0, 1)), (1.0, 0.0)), Box((-5.0, -5.0), (5.0, 5.0))
        )
        with pytest.raises(DomainEscape) as got:
            orbit(SP2, spec, (0.0, 0.0), 20)
        with pytest.raises(DomainEscape) as want:
            _iterated_orbit(SP2, spec, (0.0, 0.0), 20)
        assert str(got.value) == str(want.value)


class TestAsymptoticCenter:
    def quarter_turn(self):
        return MappingSpec(Rotation(math.pi / 2), MetricBall(SP2, (0.0, 0.0), 1.0))

    def test_value_at_the_center(self):
        F = make_asymptotic_functional(SP2, self.quarter_turn(), (1.0, 0.0))
        assert asymptotic_center(SP2, F, (0.0, 0.0)) == pytest.approx(0.5)

    def test_value_at_an_orbit_point(self):
        F = make_asymptotic_functional(SP2, self.quarter_turn(), (1.0, 0.0))
        assert asymptotic_center(SP2, F, (1.0, 0.0)) == pytest.approx(1.0)

    def test_constant_mapping_tail(self):
        c = (0.3, -0.4)
        spec = MappingSpec(
            Affine(((0, 0), (0, 0)), c), WholeSpace(2, radius=4)
        )
        F = make_asymptotic_functional(SP2, spec, (1.0, 1.0))
        y = (0.5, 0.5)
        assert asymptotic_center(SP2, F, y) == pytest.approx(distance(SP2, c, y) / 2)

    def test_window_must_fit_the_orbit(self):
        with pytest.raises(MclabError):
            AsymptoticFunctional(((0.0, 0.0),) * 4, window=8)

    def test_tail_value_recorded_across_orbit_lengths(self):
        spec = MappingSpec(
            Affine(((0.5, 0), (0, 0.5)), (0.5, 0.5)), WholeSpace(2, radius=8)
        )
        # toward the attractor the tail value shrinks with the orbit length;
        # elsewhere it may grow, so the trend is recorded rather than assumed
        at_fix, elsewhere = [], []
        for n in (16, 32, 64, 128):
            F = AsymptoticFunctional(orbit(SP2, spec, (-3.0, 3.0), n).points, 8)
            at_fix.append(asymptotic_center(SP2, F, (1.0, 1.0)))
            elsewhere.append(asymptotic_center(SP2, F, (0.0, 0.0)))
        assert all(b <= a + 1e-15 for a, b in zip(at_fix, at_fix[1:]))
        assert len(elsewhere) == 4 and all(v >= 0 for v in elsewhere)


def _twin(c):
    """A coordinate equal in value to c: ints and integral floats swap type,
    and 0.0 and -0.0 swap sign."""
    if isinstance(c, int):
        return float(c)
    if c == 0:
        return -c
    return int(c) if c.is_integer() else c


_COORD = st.one_of(
    st.integers(-5, 5), st.sampled_from([0.0, -0.0]), st.floats(-10, 10, width=16)
)


@st.composite
def _tails(draw):
    """(space, y, tail) with p in {1, 1.5, 2, inf}: tail points drawn from a
    small pool, now and then as a twin that equals a pool point in value."""
    dim = draw(st.integers(1, 3))
    space = vector_space(dim, draw(st.sampled_from([1, 1.5, 2, math.inf])))
    point = st.lists(_COORD, min_size=dim, max_size=dim).map(tuple)
    pool = draw(st.lists(point, min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    twin = pick.map(lambda q: tuple(_twin(c) for c in q))
    tail = draw(st.lists(st.one_of(pick, twin), min_size=1, max_size=40))
    return space, draw(point), tail


def _bits(value):
    return type(value), value.hex()


class TestDistinctTail:
    """The functional measures each distinct tail point once and keeps,
    bit for bit, the value over the whole tail."""

    @given(_tails())
    @settings(max_examples=300, deadline=None)
    def test_value_equals_the_maximum_over_the_whole_tail(self, case):
        space, y, tail = case
        F = AsymptoticFunctional(tuple(tail), len(tail))
        full = 0.5 * max(distances(space, y, F.tail))
        assert _bits(asymptotic_center(space, F, y)) == _bits(full)

    def test_golden_rotation_tail_is_all_distinct(self):
        F = make_asymptotic_functional(SP2, rotation_spec(), (1.0, 0.0))
        assert F.distinct_tail == F.tail
        for y in [(0.0, 0.0), (0.25, -0.5), F.tail[3]]:
            full = 0.5 * max(distances(SP2, y, F.tail))
            assert _bits(asymptotic_center(SP2, F, y)) == _bits(full)

    def test_contraction_tail_that_reached_its_fixed_point_is_one_point(self):
        spec = MappingSpec(Affine(((0.5, 0), (0, 0.5)), (0.5, 0.5)), WholeSpace(2))
        F = make_asymptotic_functional(SP2, spec, (-3.0, 3.0))
        assert len(F.tail) == 32 and F.distinct_tail == ((1.0, 1.0),)


def _unsettled_contraction():
    """A 0.9-contraction of R^3 whose 32-point tail has not settled."""
    matrix = ((0.9, 0, 0), (0, -0.9, 0), (0, 0, 0.9))
    return MappingSpec(Affine(matrix, (0.1, 0.2, -0.3)), WholeSpace(3))


_SEARCHES = [
    pytest.param(SP2, rotation_spec(), (1.0, 0.0), id="golden-rotation"),
    pytest.param(
        vector_space(3, 2), _unsettled_contraction(), (3.0, -2.0, 1.0), id="contraction"
    ),
]


class TestEarlyAbandoning:
    """The search hands its acceptance threshold to the functional, which
    stops after the first tail point once that point reaches it; the
    search's point, value and evaluation count are those of a search that
    measures every tail point."""

    @pytest.mark.parametrize("space, spec, x0", _SEARCHES)
    def test_the_search_equals_one_that_ignores_the_threshold(self, space, spec, x0):
        F = make_asymptotic_functional(space, spec, x0)
        assert len(F.distinct_tail) == 32
        full = pattern_search(
            lambda z, threshold: asymptotic_center(space, F, z),
            spec.domain.lower,
            spec.domain.upper,
            feasible=lambda z: spec.domain.contains(z, DOMAIN_TOL),
            xtol=1e-9,
        )
        result = find_fixed_point(space, spec, x0)
        got = (result.point, result.f_value, result.evaluations)
        assert repr(got) == repr(full)

    @given(_tails(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_value_below_the_threshold_is_the_functional(self, case, data):
        space, y, tail = case
        F = AsymptoticFunctional(tuple(tail), len(tail))
        value = asymptotic_center(space, F, y)
        halves = [0.5 * d for d in distances(space, y, F.distinct_tail)]
        threshold = data.draw(
            st.one_of(st.none(), st.sampled_from(halves), st.floats(0, 20))
        )
        got = _tail_value(space, F, y, threshold)
        if threshold is None or value < threshold:
            assert _bits(got) == _bits(value)
        else:
            assert threshold <= got <= value

    def test_a_rejected_candidate_measures_one_entry(self, monkeypatch):
        entries = [0]
        calls = []  # (point, threshold, value, entries measured) per candidate

        def counted_distance(space, a, b):
            entries[0] += 1
            return distance(space, a, b)

        def counted_distances(space, y, points):
            entries[0] += len(points)
            return distances(space, y, points)

        def counted_tail_value(space, F, y, threshold):
            before = entries[0]
            value = _tail_value(space, F, y, threshold)
            calls.append((y, threshold, value, entries[0] - before))
            return value

        monkeypatch.setattr(fixedpoint, "distance", counted_distance)
        monkeypatch.setattr(fixedpoint, "distances", counted_distances)
        monkeypatch.setattr(fixedpoint, "_tail_value", counted_tail_value)
        result = find_fixed_point(SP2, rotation_spec(), (1.0, 0.0))
        monkeypatch.undo()
        F = make_asymptotic_functional(SP2, rotation_spec(), (1.0, 0.0))
        assert len(calls) == result.evaluations == 129
        early = 0
        for y, threshold, value, measured in calls:
            first = 0.5 * distance(SP2, F.tail[0], y)
            if threshold is not None and first >= threshold:
                early += 1
                assert (measured, value) == (1, first)
            else:
                assert (measured, value) == (33, asymptotic_center(SP2, F, y))
        assert early == 60
        # 257 orbit distances and the residual around the candidates; a
        # search that measures every tail point takes 257 + 32 * 129 + 1
        assert entries[0] == 257 + 33 * len(calls) - 32 * early + 1 == 2595
        assert entries[0] < 4386


class TestFindFixedPoint:
    def test_seventh_turn_rotation_finds_the_origin(self):
        result = find_fixed_point(SP2, rotation_spec(), (1.0, 0.0))
        assert distance(SP2, result.point, (0.0, 0.0)) <= 1e-3
        assert result.residual <= 1e-6
        assert result.converged
        # grid oracle: brute-force the functional over the square
        F = make_asymptotic_functional(SP2, rotation_spec(), (1.0, 0.0))
        best, best_pt = math.inf, None
        for i in range(41):
            for j in range(41):
                pt = (-1 + i / 20, -1 + j / 20)
                v = asymptotic_center(SP2, F, pt)
                if v < best:
                    best, best_pt = v, pt
        assert best_pt == pytest.approx((0.0, 0.0))
        assert result.f_value == pytest.approx(0.5, abs=1e-3)
        assert result.f_value <= best + 1e-9

    def test_shifted_center_not_on_the_grid(self):
        spec = rotation_spec(center=(0.3, 0.2))
        result = find_fixed_point(SP2, spec, (0.9, 0.1))
        assert distance(SP2, result.point, (0.3, 0.2)) <= 1e-3
        assert result.residual <= 1e-6

    def test_contraction_converges_to_its_fixed_point(self):
        spec = MappingSpec(
            Affine(((0.5, 0), (0, 0.5)), (0.5, 0.5)), WholeSpace(2, radius=4)
        )
        result = find_fixed_point(SP2, spec, (-2.0, 3.0))
        assert result.point == pytest.approx((1.0, 1.0), abs=1e-6)
        assert result.residual <= 1e-6

    def test_projection_returns_a_fixed_box_point(self):
        spec = MappingSpec(
            BoxProjection((0.0, 0.0), (1.0, 1.0)),
            Box((-3.0, -3.0), (3.0, 3.0)),
        )
        result = find_fixed_point(SP2, spec, (2.5, -1.5))
        assert result.residual <= 1e-6
        tail_limit = (1.0, 0.0)  # clamp of the start; the orbit is constant there
        assert result.point == pytest.approx(tail_limit, abs=1e-6)
        # f is minimal over the box: compare against a grid of fixed points
        F = make_asymptotic_functional(SP2, spec, (2.5, -1.5))
        grid_best = min(
            asymptotic_center(SP2, F, (i / 10, j / 10))
            for i in range(11)
            for j in range(11)
        )
        assert result.f_value <= grid_best + 1e-9

    def test_unbounded_orbit_is_an_error(self, monkeypatch):
        monkeypatch.setattr(fixedpoint, "_RMAX", 50.0)
        spec = MappingSpec(
            Affine(((1, 0), (0, 1)), (1.0, 0.0)), WholeSpace(2, radius=1e7)
        )
        with pytest.raises(SolverFailure):
            find_fixed_point(SP2, spec, (0.0, 0.0))

    def test_exhausted_budget_reported_not_hidden(self, monkeypatch):
        monkeypatch.setattr(fixedpoint, "_BUDGET", 30)
        result = find_fixed_point(SP2, rotation_spec(), (1.0, 0.0))
        assert result.evaluations <= 30
        if result.residual > 1e-6:
            assert not result.converged

    def test_minimum_is_empirically_unique(self):
        import random

        result = find_fixed_point(SP2, rotation_spec(), (1.0, 0.0))
        F = make_asymptotic_functional(SP2, rotation_spec(), (1.0, 0.0))
        f0 = asymptotic_center(SP2, F, result.point)
        rng = random.Random(17)
        for _ in range(2000):
            u = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if asymptotic_center(SP2, F, u) <= f0 + 1e-9:
                assert distance(SP2, u, result.point) <= 1e-3

    def test_residual_implies_functional_descent(self):
        spec = rotation_spec()
        result = find_fixed_point(SP2, spec, (1.0, 0.0))
        assert result.residual <= 1e-6
        F = make_asymptotic_functional(SP2, spec, (1.0, 0.0))
        f_tu = asymptotic_center(SP2, F, spec.apply(result.point))
        f_u = asymptotic_center(SP2, F, result.point)
        assert f_tu <= f_u + 1e-6

    @pytest.mark.parametrize("dom", ["ball", "box", "all"])
    def test_orbit_radius_is_the_largest_distance_to_the_start(self, dom, monkeypatch):
        monkeypatch.setattr(fixedpoint, "_BUDGET", 50)
        space = vector_space(3, 2)
        for seed in range(5):
            spec, x0 = _signed_permutation_contraction(seed, dom)
            result = find_fixed_point(space, spec, x0)
            want = max(distances(space, x0, _iterated_orbit(space, spec, x0, 256).points))
            assert repr(result.orbit_radius) == repr(want)

    def test_a_start_the_map_fixes_has_float_radius_zero(self, monkeypatch):
        monkeypatch.setattr(fixedpoint, "_BUDGET", 50)
        result = find_fixed_point(SP2, rotation_spec(), (0.0, 0.0))
        assert repr(result.orbit_radius) == "0.0"


# the golden `fixedpoint-cycle2` map, whose float orbit ends in a 2-cycle
_CYCLE2 = (
    Affine(((-0.59, 0, 0), (0, 0, -0.46), (0, 0.83, 0)), (-2.86, 2.01, -3.47)),
    (-1.76, 2.51, -1.29),
)


def _search(space, spec, F, tol=1e-6):
    """(point, value, evaluations) of the compass search that
    `find_fixed_point` runs when no closed form applies."""
    return pattern_search(
        lambda z, threshold: _tail_value(space, F, z, threshold),
        spec.domain.lower,
        spec.domain.upper,
        feasible=lambda z: spec.domain.contains(z, DOMAIN_TOL),
        xtol=min(tol * 1e-3, 1e-9),
    )


@dataclass(frozen=True)
class PuncturedSquare:
    """[-1, 1]^dim without the open cube of half-width 0.1 about the origin."""

    dim: int

    def contains(self, z, tol: float = 0) -> bool:
        return 0.1 - tol <= max(map(abs, z)) <= 1 + tol

    @property
    def lower(self):
        return (-1.0,) * self.dim

    @property
    def upper(self):
        return (1.0,) * self.dim


class TestClosedFormCenter:
    """One- and two-point tails, and d_inf tails, take the asymptotic center
    in closed form with no search."""

    def test_halving_map_gives_its_fixed_point(self):
        spec = MappingSpec(Affine(((0.5, 0), (0, 0.5)), (0.5, 0.5)), WholeSpace(2))
        result = find_fixed_point(SP2, spec, (-3.0, 3.0))
        assert result.point == (1.0, 1.0)
        assert (result.evaluations, result.residual, result.f_value) == (0, 0.0, 0.0)
        assert result.method == "single-point" and result.converged

    def test_one_point_tail_of_an_unsettled_orbit_is_not_a_fixed_point(self, monkeypatch):
        space = vector_space(3, 2)
        spec = _unsettled_contraction()
        orb = orbit(space, spec, (3.0, -2.0, 1.0), 64)
        last = orb.points[-1]
        F = AsymptoticFunctional(orb.points, 1)
        assert closed_form_center(space, F, spec.domain) == (last, "single-point")
        # the solver on that tail: a 64-step orbit and a one-point window
        monkeypatch.setattr(fixedpoint, "_ORBIT_STEPS", 64)
        monkeypatch.setattr(fixedpoint, "_WINDOW", 1)
        result = find_fixed_point(space, spec, (3.0, -2.0, 1.0))
        assert result.point == last and result.method == "single-point"
        assert result.residual == distance(space, spec.apply(last), last) > 1e-6
        assert not result.converged

    @pytest.mark.parametrize("p", [1, 1.5, 2, math.inf])
    def test_two_point_cycle_takes_the_midpoint(self, p):
        space = vector_space(3, p)
        mapping, center = _CYCLE2
        spec = MappingSpec(mapping, MetricBall(space, center, 2.0))
        F = make_asymptotic_functional(space, spec, center)
        assert len(F.distinct_tail) == 2
        result = find_fixed_point(space, spec, center)
        a, b = F.distinct_tail
        assert result.point == tuple(x + 0.5 * (y - x) for x, y in zip(a, b))
        assert (result.method, result.evaluations) == ("two-point-midpoint", 0)
        assert result.f_value == asymptotic_center(space, F, result.point)
        assert result.f_value <= _search(space, spec, F)[1]
        assert result.converged

    def test_seventh_turn_rotation_under_d_inf_takes_the_box_midpoint(self):
        space = vector_space(2, math.inf)
        spec = MappingSpec(Rotation(2 * math.pi / 7), MetricBall(space, (0.0, 0.0), 1.0))
        F = make_asymptotic_functional(space, spec, (1.0, 0.0))
        assert len(F.distinct_tail) == 32
        result = find_fixed_point(space, spec, (1.0, 0.0))
        axes = list(zip(*F.distinct_tail))
        assert result.point == tuple(
            lo + 0.5 * (hi - lo) for lo, hi in zip(map(min, axes), map(max, axes))
        )
        assert (result.method, result.evaluations) == ("box-midpoint", 0)
        assert result.f_value <= _search(space, spec, F)[1]

    def test_float_space_reports_float_coordinates(self):
        # the clamp of the start carries the box projection's int bounds
        spec = MappingSpec(BoxProjection((0, 0), (1, 1)), Box((-3.0, -3.0), (3.0, 3.0)))
        F = make_asymptotic_functional(SP2, spec, (2.5, -1.5))
        assert F.distinct_tail == ((1, 0),) and type(F.distinct_tail[0][0]) is int
        result = find_fixed_point(SP2, spec, (2.5, -1.5))
        assert [_bits(c) for c in result.point] == [_bits(1.0), _bits(0.0)]
        assert result.residual == 0.0 and result.method == "single-point"

    def test_exact_space_takes_the_exact_midpoint(self):
        space = vector_space(1, 1, exact=True)
        spec = MappingSpec(Negation(), WholeSpace(1))
        result = find_fixed_point(space, spec, (Fraction(3, 4),))
        assert result.point == (Fraction(0),) and type(result.point[0]) is Fraction
        assert result.method == "two-point-midpoint"
        assert result.f_value == Fraction(3, 8) and result.residual == 0

    def test_midpoint_outside_the_domain_goes_to_the_search(self):
        spec = MappingSpec(Negation(), PuncturedSquare(2))
        result = find_fixed_point(SP2, spec, (0.5, -0.25))
        assert result.method == "compass-search" and result.evaluations > 0
        assert spec.domain.contains(result.point, DOMAIN_TOL)
        assert not result.converged

    def test_search_runs_where_no_closed_form_exists(self):
        result = find_fixed_point(SP2, rotation_spec(), (1.0, 0.0))
        assert (result.method, result.evaluations) == ("compass-search", 129)

    @pytest.mark.parametrize("p", [1, 1.5, 2, math.inf])
    @pytest.mark.parametrize("dom", ["ball", "box", "all"])
    def test_closed_form_never_changes_an_outcome_or_loses_value(self, p, dom):
        space = vector_space(3, p)
        methods = set()
        for seed in range(40):
            spec, x0 = _signed_permutation_contraction(seed, dom, space)
            F = make_asymptotic_functional(space, spec, x0)
            result = find_fixed_point(space, spec, x0)
            point, value, evaluations = _search(space, spec, F)
            methods.add(result.method)
            if result.method == "compass-search":
                assert (result.point, result.f_value) == (point, value)
                assert result.evaluations == evaluations
                continue
            residual = distance(space, spec.apply(point), point)
            assert result.converged == (residual <= 1e-6)
            assert result.f_value <= value
            assert result.evaluations == 0
        closed = {"single-point", "two-point-midpoint"}
        assert closed | {"box-midpoint" if p == math.inf else "compass-search"} == methods


class TestSemigroup:
    """The single-valued midpoint maps toward a common point y, each formed
    as x -> unique_midpoint(space, x, y, t), or as the one point of
    `midpoint_set` under a named convention."""

    @staticmethod
    def _chain(space, x, y, t_list, conv=MidConvention.FROM_Y):
        # the listed maps toward y, the first applied first
        for t in t_list:
            x = midpoint_set(space, x, y, t, conv).point
        return x

    @staticmethod
    def _lipschitz(space, f, count, seed=0):
        # the largest sampled ratio d(f(a), f(b)) / d(a, b)
        rng = random.Random(seed)
        best = 0
        for _ in range(count):
            a = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if a != b:
                best = max(best, distance(SP2, f(a), f(b)) / distance(SP2, a, b))
        return best

    def test_composed_contraction_factor(self):
        y = (0.25, -0.5)
        estimate = self._lipschitz(SP2, lambda x: self._chain(SP2, x, y, [0.5, 1 / 3]), 1000)
        assert abs(estimate - 1 / 6) <= 1e-9

    def test_single_map_factor_equals_t(self):
        y = (0.0, 0.0)
        estimate = self._lipschitz(SP2, lambda x: unique_midpoint(SP2, x, y, 0.4), 500)
        assert abs(estimate - 0.4) <= 1e-9

    def test_common_point_fixed_exactly(self):
        # each map carries x to the point at t * d(x, y) from y, so y is the
        # common fixed point; at x = y the two balls have radius zero and the
        # request is refused rather than answered
        y = (1.0, 2.0)
        rng = random.Random(7)
        for _ in range(100):
            x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            image = self._chain(SP2, x, y, [0.5, 0.25])
            assert abs(distance(SP2, image, y) - 0.125 * distance(SP2, x, y)) <= 1e-12
        with pytest.raises(MclabError):
            midpoint_set(SP2, y, y, 0.5)

    def test_associativity_pointwise(self):
        y = (0.5, 0.5)
        a, b, c = 0.5, 1 / 3, 0.25
        rng = random.Random(23)
        for _ in range(1000):
            x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            left = self._chain(SP2, x, y, [a, b, c])
            assert distance(SP2, left, self._chain(SP2, x, y, [a * b, c])) <= 1e-12
            assert distance(SP2, left, unique_midpoint(SP2, x, y, a * b * c)) <= 1e-12

    def test_refused_without_unique_midpoints(self):
        with pytest.raises(UniqueMidpointUndefined):
            unique_midpoint(vector_space(2, math.inf), (1.0, 0.0), (0.0, 0.0), 0.5)

    def test_literal_convention_contracts_with_one_minus_t(self):
        y = (0.0, 0.0)
        step = lambda x: self._chain(SP2, x, y, [0.25], MidConvention.FROM_X)
        assert abs(self._lipschitz(SP2, step, 500) - 0.75) <= 1e-9

    @given(
        st.sampled_from([1.5, 2, 3]),
        st.lists(st.floats(-2, 2), min_size=6, max_size=6),
        st.floats(0.02, 0.98),
    )
    @settings(max_examples=300, deadline=None)
    def test_map_is_the_midpoint_set_point_bit_for_bit(self, p, coords, t):
        space = vector_space(3, p)
        x, y = tuple(coords[:3]), tuple(coords[3:])
        if x == y:
            return
        got = unique_midpoint(space, x, y, t)
        want = midpoint_set(space, x, y, t, MidConvention.FROM_Y).point
        assert [_bits(c) for c in got] == [_bits(c) for c in want]


class TestMappingJson:
    def test_rotation_round_trip(self):
        obj = {
            "kind": "rotation",
            "parameters": {"turns": "1/7", "center": [0, 0]},
            "domain": {"repr": "ball", "center": [0, 0], "radius": 1},
        }
        spec = mapping_from_json(obj, SP2)
        assert isinstance(spec.mapping, Rotation)
        assert spec.mapping.angle == pytest.approx(2 * math.pi / 7)

    def test_ball_domain_takes_the_given_metric(self):
        obj = {
            "kind": "rotation",
            "parameters": {"turns": "1/4"},
            "domain": {"repr": "ball", "center": [0, 0], "radius": 1},
        }
        spec = mapping_from_json(obj, vector_space(2, math.inf))
        assert spec.domain.contains((0.9, 0.9))
        assert not spec.domain.contains((1.1, 0.0))
        assert not mapping_from_json(obj, SP2).domain.contains((0.9, 0.9))

    def test_composition_applies_in_order(self):
        obj = {
            "kind": "composition",
            "parameters": {
                "maps": [
                    {"kind": "affine", "parameters": {"matrix": [[2, 0], [0, 2]], "offset": [0, 0]}},
                    {"kind": "affine", "parameters": {"matrix": [[1, 0], [0, 1]], "offset": [1, 1]}},
                ]
            },
            "domain": {"repr": "all", "radius": 10},
        }
        spec = mapping_from_json(obj, SP2)
        assert spec.apply((1.0, 1.0)) == (3.0, 3.0)
