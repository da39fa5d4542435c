from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mclab import (
    Box,
    CappedSimplex,
    DimensionMismatch,
    ExactArithmeticUnsupported,
    FiniteSet,
    InternalInconsistency,
    MclabError,
    MidConvention,
    SamplePlan,
    SetUnion,
    Singleton,
    UniqueMidpointUndefined,
    check_menger_convex,
    check_property,
    constant_fn,
    directed_hausdorff,
    distance,
    hausdorff,
    l1_function_space,
    lifted_union,
    midpoint_set,
    segment,
    space_from_id,
    sphere_equivalence_check,
    unique_midpoint,
    vector_space,
)
import mclab.convexsets as convexsets
from mclab.arith import common_denominator, is_rational, scaled
from mclab.hausdorff import _nearest as hausdorff_nearest
from mclab.reports import stable_json_dumps
from mclab.spaces import vlerp
from mclab.convexsets import (
    DEFAULT_TOL,
    MAX_SIMPLEX_AXES,
    chord_points,
    diameter_with_witness,
    radii_for,
    segment_points,
)

FX = MidConvention.FROM_X
FY = MidConvention.FROM_Y


def _on_spheres(space, x, y, t, conv, rep, tol=DEFAULT_TOL):
    """The sphere scan of a set built here: `_spheres_verdict` with the
    radii measured as `sphere_equivalence_check` measures them, and t not
    checked, so that a set off the midpoint set of x, y and t can be
    tried."""
    radii = radii_for(conv, t, distance(space, x, y))
    return convexsets._spheres_verdict(space, x, y, t, conv, rep, *radii, tol)


class TestMidpointSet:
    def test_sup_metric_box(self):
        space = vector_space(3, math.inf, exact=True)
        rep = midpoint_set(space, (0, 0, 0), (2, 0, 0), F(1, 4), FX)
        assert isinstance(rep, Box)
        assert rep.lower == (F(1, 2), F(-1, 2), F(-1, 2))
        assert rep.upper == (F(1, 2), F(1, 2), F(1, 2))

    def test_euclidean_halfway_is_the_mean(self):
        space = vector_space(2, 2)
        for conv in (FX, FY):
            rep = midpoint_set(space, (0.0, 1.0), (4.0, -3.0), 0.5, conv)
            assert isinstance(rep, Singleton)
            assert rep.point == pytest.approx((2.0, -1.0))

    def test_taxicab_oracle_accepts_all_twelve_witnesses(self):
        space = vector_space(4, 1, exact=True)
        x = (F(0),) * 4
        y = (F(1, 2),) * 4
        rep = midpoint_set(space, x, y, F(1, 2), FX)
        for i, j in itertools.permutations(range(4), 2):
            coords = [F(1, 4)] * 4
            coords[i], coords[j] = F(0), F(1, 2)
            assert rep.contains(tuple(coords))

    def test_identical_endpoints_rejected(self):
        space = vector_space(2, 2)
        with pytest.raises(MclabError):
            midpoint_set(space, (1.0, 1.0), (1.0, 1.0), 0.5)

    @given(
        st.sampled_from([1.5, 2, 3]),
        st.integers(1, 3).flatmap(
            lambda n: st.lists(st.floats(-2, 2), min_size=2 * n, max_size=2 * n)
        ),
        st.floats(0.02, 0.98),
        st.floats(0.02, 0.98),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_maps_toward_y_compose(self, p, coords, t1, t2):
        # m(., y, t2) after m(., y, t1) is m(., y, t1 * t2) under FROM_Y, and
        # m(., y, 1 - (1 - t1) * (1 - t2)) under FROM_X
        n = len(coords) // 2
        x, y = tuple(coords[:n]), tuple(coords[n:])
        assume(x != y)
        space = vector_space(n, p)
        for conv, t in ((FY, t1 * t2), (FX, 1 - (1 - t1) * (1 - t2))):
            first = midpoint_set(space, x, y, t1, conv).point
            # the map toward y fixes y
            composed = first if first == y else midpoint_set(space, first, y, t2, conv).point
            direct = midpoint_set(space, x, y, t, conv).point
            assert distance(space, composed, direct) <= 1e-12

    def test_conventions_coincide_at_one_half(self):
        exact_spaces = [vector_space(3, 1, exact=True), vector_space(3, math.inf, exact=True)]
        rng = random.Random(5)
        for space in exact_spaces:
            for _ in range(50):
                x = tuple(F(rng.randint(-16, 16), 8) for _ in range(3))
                y = tuple(F(rng.randint(-16, 16), 8) for _ in range(3))
                if x == y:
                    continue
                a = midpoint_set(space, x, y, F(1, 2), FX)
                b = midpoint_set(space, x, y, F(1, 2), FY)
                assert a == b

    def test_euclidean_sets_have_zero_diameter(self):
        space = vector_space(3, 2)
        rng = random.Random(11)
        plan = SamplePlan(seed=11)
        for _ in range(1000):
            x = tuple(rng.uniform(-2, 2) for _ in range(3))
            y = tuple(rng.uniform(-2, 2) for _ in range(3))
            if x == y:
                continue
            t = rng.uniform(0.05, 0.95)
            rep = midpoint_set(space, x, y, t)
            assert diameter_with_witness(space, rep)[0] <= 1e-9

    def test_taxicab_and_sup_sets_can_be_fat(self):
        sup_space = vector_space(3, math.inf, exact=True)
        rep = midpoint_set(sup_space, (0, 0, 0), (2, 0, 0), F(1, 4), FX)
        assert diameter_with_witness(sup_space, rep)[0] >= 1

        tax_space = vector_space(4, 1, exact=True)
        rep = midpoint_set(tax_space, (F(0),) * 4, (F(1, 2),) * 4, F(1, 2), FX)
        assert diameter_with_witness(tax_space, rep)[0] >= 1


def _half(lo, hi):
    """The half-integer lattice values in [lo, hi]."""
    return [F(k, 2) for k in range(math.ceil(2 * lo), math.floor(2 * hi) + 1)]


def _simplex_cases(dim, count=8):
    """(space, x, y, t) with half-integer x, y and a half-integer radius, so
    every vertex and every nearest point of a lattice point is on the
    half-integer lattice; the second case shares half the axes."""
    space = vector_space(dim, 1, exact=True)
    rng = random.Random(f"simplex:{dim}")
    for case in range(count):
        x = [F(rng.randint(-3, 3), 2) for _ in range(dim)]
        y = [F(rng.randint(-3, 3), 2) for _ in range(dim)]
        if case == 1:
            for i in rng.sample(range(dim), dim // 2):
                y[i] = x[i]
        while distance(space, x, y) < 1:
            y[0] += 1
        d = distance(space, x, y)
        t = F(rng.randint(1, int(2 * d) - 1), 2) / d
        yield space, tuple(x), tuple(y), t


def _around(x, y):
    """Lattice points of the coordinate box of x and y, padded by 1/2."""
    axes = [_half(min(a, b) - F(1, 2), max(a, b) + F(1, 2)) for a, b in zip(x, y)]
    return [tuple(p) for p in itertools.product(*axes)]


def _two_distance(space, x, y, r1, r2):
    return lambda z: distance(space, z, x) <= r1 and distance(space, z, y) <= r2


class TestCappedSimplex:
    """The closed-form d_1 midpoint set against brute force over the
    half-integer lattice, which holds every vertex and nearest point."""

    @pytest.mark.parametrize("conv", [FX, FY], ids=["fromx", "fromy"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_contains_is_the_two_distance_predicate(self, exact, dim, conv):
        # a lattice point's d_1 distance to the set is a multiple of 1/2, so a
        # float tolerance far below that separates members from the rest
        tol = 0 if exact else 1e-9
        for space, x, y, t in _simplex_cases(dim):
            if not exact:
                space = vector_space(dim, 1)
                x, y, t = tuple(map(float, x)), tuple(map(float, y)), float(t)
            rep = midpoint_set(space, x, y, t, conv)
            assert isinstance(rep, CappedSimplex)
            r1, r2 = radii_for(conv, t, distance(space, x, y))
            plain = _two_distance(space, x, y, r1 + tol, r2 + tol)
            probes = _around(x, y)
            if not exact:
                # vertices nudged by tol/2 on one axis stay within tol
                probes = [tuple(map(float, z)) for z in probes] + [
                    v[:i] + (v[i] + sign * tol / 2,) + v[i + 1 :]
                    for v in rep.sample_points()
                    for i in range(dim)
                    for sign in (1, -1)
                ]
            for z in probes:
                assert rep.contains(z, tol) == plain(z), z

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_vertices_attain_linear_maxima_and_the_diameter(self, dim):
        rng = random.Random(dim)
        for space, x, y, t in _simplex_cases(dim):
            rep = midpoint_set(space, x, y, t, FX)
            members = [z for z in _around(x, y) if rep.contains(z)]
            vertices = rep.sample_points()
            assert set(vertices) <= set(members)
            for _ in range(5):
                w = [rng.randint(-3, 3) for _ in range(dim)]
                score = lambda z: sum(a * b for a, b in zip(w, z))  # noqa: E731
                assert max(map(score, members)) == max(map(score, vertices))
            brute = max(distance(space, a, b) for a in members for b in members)
            assert diameter_with_witness(space, rep)[0] == brute

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_nearest_attains_the_distance_to_the_set(self, dim):
        for space, x, y, t in _simplex_cases(dim):
            rep = midpoint_set(space, x, y, t, FX)
            lattice = _around(x, y)
            members = [z for z in lattice if rep.contains(z)]
            for z in lattice:
                near = rep.nearest_with_distance(z)[1]
                assert rep.contains(near)
                assert distance(space, z, near) == min(
                    distance(space, z, m) for m in members
                )

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_directed_hausdorff_between_simplices_is_exact(self, dim):
        cases = list(_simplex_cases(dim))
        for (space, x, y, t), (_, u, v, s) in zip(cases, cases[1:]):
            A = midpoint_set(space, x, y, t, FX)
            B = midpoint_set(space, u, v, s, FX)
            members_a = [z for z in _around(x, y) if A.contains(z)]
            members_b = [z for z in _around(u, v) if B.contains(z)]
            brute = max(
                min(distance(space, a, b) for b in members_b) for a in members_a
            )
            result = directed_hausdorff(space, A, B)
            assert result.exact
            assert result.value == brute
            wa, wb = result.witness
            assert A.contains(wa) and B.contains(wb)
            assert distance(space, wa, wb) == brute

    def test_vertex_enumeration_is_bounded(self):
        n = MAX_SIMPLEX_AXES + 1
        space = vector_space(n, 1, exact=True)
        rep = midpoint_set(space, (F(0),) * n, (F(1),) * n, F(1, 2), FX)
        assert rep.contains((F(1),) * (n // 2) + (F(1, 2),) + (F(0),) * (n // 2))
        with pytest.raises(MclabError):
            rep.sample_points()
        # the float check walks the vertices without listing them, and
        # refuses the same set
        with pytest.raises(MclabError, match="too many vertices"):
            sphere_equivalence_check(vector_space(n, 1), (0.0,) * n, (1.0,) * n, 0.5)


def test_golden_bprime_certificate_re_evaluates_exactly():
    """The committed d_1 (B') failure is an exact certificate: its lhs is
    the Hausdorff distance of the two midpoint sets, recomputed here."""
    path = Path(__file__).parent / "golden" / "check-vec3-p1-exact.json"
    entry = next(
        e for e in json.loads(path.read_text())["reports"] if e["property"] == "Bprime"
    )
    w = {k: v for k, v in entry["witness"].items()}

    def point(v):
        return tuple(F(c) for c in v)

    space = vector_space(3, 1, exact=True)
    x, y, z, t = point(w["x"]), point(w["y"]), point(w["z"]), F(w["t"])
    result = hausdorff(
        space, midpoint_set(space, x, y, t, FY), midpoint_set(space, z, y, t, FY)
    )
    assert result.exact
    assert result.value == F(w["lhs"])
    assert result.value - t * distance(space, x, z) == F(entry["maxSlack"])
    wa, wb = result.witness
    assert [point(p) for p in w["hausdorff_witness"]] == [wa, wb]
    assert distance(space, wa, wb) == result.value


class TestSphereEquivalence:
    def test_box_samples_lie_on_both_spheres(self):
        space = vector_space(3, math.inf, exact=True)
        verdict = sphere_equivalence_check(space, (0, 0, 0), (2, 0, 0), F(1, 4), FX)
        assert verdict.holds
        # 3 grid values per axis; the maximal axis is always degenerate in a
        # sup-metric midpoint box, so the 3^3 grid dedupes to 9 points
        assert verdict.samples == 9
        assert verdict.max_slack == 0

    def test_euclidean_singleton_on_both_spheres(self):
        space = vector_space(2, 2)
        verdict = sphere_equivalence_check(space, (0.0, 0.0), (3.0, 1.0), 0.25)
        assert verdict.holds

    def test_corrupted_box_fails_with_witness(self):
        space = vector_space(3, math.inf)
        x, y, t = (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), 0.25
        rep = midpoint_set(space, x, y, t, FX)
        fat = Box(
            tuple(c - 0.1 for c in rep.lower),
            tuple(c + 0.1 for c in rep.upper),
        )
        verdict = _on_spheres(space, x, y, t, FX, fat)
        assert verdict.fails
        w = verdict.witness
        # the witness re-evaluates: it sits off at least one sphere
        dx = distance(space, w["point"], x)
        dy = distance(space, w["point"], y)
        assert max(abs(dx - w["radius_x"]), abs(dy - w["radius_y"])) > 1e-9

    def test_menger_nonemptiness_over_seeded_samples(self):
        spaces = [
            vector_space(4, 1, exact=True),
            vector_space(3, math.inf, exact=True),
            vector_space(3, 2),
        ]
        for space in spaces:
            rng = random.Random(13)
            for _ in range(200):
                if space.exact:
                    x = tuple(F(rng.randint(-32, 32), 16) for _ in range(space.dim))
                    y = tuple(F(rng.randint(-32, 32), 16) for _ in range(space.dim))
                    t = F(rng.randint(1, 15), 16)
                else:
                    x = tuple(rng.uniform(-2, 2) for _ in range(space.dim))
                    y = tuple(rng.uniform(-2, 2) for _ in range(space.dim))
                    t = rng.uniform(0.05, 0.95)
                if x == y:
                    continue
                rep = midpoint_set(space, x, y, t, FX)
                assert rep.sample_points()
                assert sphere_equivalence_check(space, x, y, t, FX).holds


def _scan_on_spheres(space, x, y, t, conv, rep, tol=DEFAULT_TOL):
    """Outcome, samples, max_slack and first failing point of a plain scan
    of every sample point of `rep` against both spheres."""
    r1, r2 = radii_for(conv, t, distance(space, x, y))
    slack_tol = 0 if space.exact else tol
    points = rep.sample_points()
    max_slack = 0
    for z in points:
        gap = max(
            abs(distance(space, z, x) - r1), abs(distance(space, z, y) - r2)
        )
        if gap > slack_tol:
            return "fails", len(points), gap, z
        if gap > max_slack:
            max_slack = gap
    return "holds", len(points), max_slack, None


# a rational in (0, 1) with a denominator of 2-30
_EXACT_T = st.integers(2, 30).flatmap(lambda q: st.integers(1, q - 1).map(lambda k: F(k, q)))


@st.composite
def _sup_boxes(draw, exact=None):
    """(space, x, y, t, conv, box): a d_inf midpoint box in dimension 1-6,
    exact (rationals with denominators 1-30 and plain ints) or in floats
    unless `exact` is given, with each axis kept, collapsed to one value,
    shifted or widened off the spheres, or replaced by any interval."""
    dim = draw(st.integers(1, 6))
    if exact is None:
        exact = draw(st.booleans())
    if exact:
        coord = st.one_of(
            st.integers(-2, 2), st.builds(F, st.integers(-60, 60), st.integers(1, 30))
        )
        t = draw(_EXACT_T)
        step = st.builds(F, st.integers(1, 8), st.integers(1, 30))
    else:
        coord = st.one_of(
            st.integers(-32, 32).map(lambda k: k / 16),
            st.floats(-2, 2, allow_nan=False),
        )
        t = draw(st.floats(0.02, 0.98))
        step = st.sampled_from([1e-12, 1e-6, 0.125])
    x = tuple(draw(st.lists(coord, min_size=dim, max_size=dim)))
    y = tuple(draw(st.lists(coord, min_size=dim, max_size=dim)))
    assume(x != y)
    conv = draw(st.sampled_from(list(MidConvention)))
    space = vector_space(dim, math.inf, exact=exact)
    rep = midpoint_set(space, x, y, t, conv)
    lower, upper = [], []
    for lo, hi in zip(rep.lower, rep.upper):
        move = draw(
            st.sampled_from(["keep", "keep", "lo", "hi", "mid", "shift", "grow", "span"])
        )
        if move == "lo":
            hi = lo
        elif move == "hi":
            lo = hi
        elif move == "mid":
            lo = hi = (lo + hi) / 2
        elif move == "shift":
            delta = draw(step)
            lo, hi = lo + delta, hi + delta
        elif move == "grow":
            delta = draw(step)
            lo, hi = lo - delta, hi + delta
        elif move == "span":
            # any interval of coordinates, exact ones as Fractions so that
            # the midpoint of two ints stays exact
            lo, hi = sorted(F(draw(coord)) if exact else draw(coord) for _ in "lh")
        lower.append(lo)
        upper.append(hi)
    return space, x, y, t, conv, Box(tuple(lower), tuple(upper))


class TestExactSupBox:
    """The bounds of an exact d_inf midpoint box against the Fraction
    formula, with d(x, y) and the radii worked out here."""

    @given(_sup_boxes(exact=True))
    @settings(max_examples=300, deadline=None)
    def test_exact_box_bounds_equal_the_fraction_formula(self, case):
        space, x, y, t, conv, _ = case
        d = max(abs(F(a) - F(b)) for a, b in zip(x, y))
        r1, r2 = (t * d, (1 - t) * d) if conv is FX else ((1 - t) * d, t * d)
        rep = midpoint_set(space, x, y, t, conv)
        assert rep.lower == tuple(max(a - r1, b - r2) for a, b in zip(x, y))
        assert rep.upper == tuple(min(a + r1, b + r2) for a, b in zip(x, y))
        assert all(type(v) is F for v in (*rep.lower, *rep.upper))


@pytest.mark.parametrize("p", [1, math.inf])
def test_a_float_parameter_on_an_exact_space_is_refused(p):
    # on d_inf the box of t = 0.25 held floats yet was marked exact, and the
    # sphere check said it held; on d_1 the simplex had the float r1 1.5
    space = vector_space(2, p, exact=True)
    with pytest.raises(ExactArithmeticUnsupported, match="rational parameter t"):
        midpoint_set(space, (0, 0), (2, 0), 0.25)
    with pytest.raises(ExactArithmeticUnsupported, match="rational parameter t"):
        sphere_equivalence_check(space, (0, 0), (2, 0), 0.25)


def test_every_public_sphere_check_checks_its_parameter():
    # a second public route to the check, taking a set built elsewhere, once
    # checked no t: a float t on an exact d_inf box held from a float gap,
    # and a t outside (0, 1) was checked against a negative radius
    space = vector_space(2, math.inf, exact=True)
    x, y = (F(0), F(0)), (F(2), F(0))
    given_args = {
        "space": space,
        "x": x,
        "y": y,
        "conv": FX,
        "rep": midpoint_set(space, x, y, F(1, 4), FX),
    }
    checks = [
        f
        for name, f in vars(convexsets).items()
        if not name.startswith("_")
        and inspect.isfunction(f)
        and f.__module__ == convexsets.__name__
        and inspect.signature(f).return_annotation == "PropertyVerdict"
    ]
    assert sphere_equivalence_check in checks
    for check in checks:
        params = inspect.signature(check).parameters
        args = {k: v for k, v in given_args.items() if k in params}
        with pytest.raises(ExactArithmeticUnsupported, match="rational parameter t"):
            check(**args, t=0.25)
        for t in (F(-1, 4), F(5, 4)):
            with pytest.raises(MclabError, match="strictly between 0 and 1"):
                check(**args, t=t)


def _axis_values(box):
    """The per-axis values of a box's sample grid."""
    return convexsets._grid_axes(zip(box.lower, box.upper))


def _integer_gap(box, spheres):
    """`_sphere_gap` of an exact box in the integer frame of
    `sphere_equivalence_check`: bounds, centres and radii over twice their
    common denominator, and one Fraction at the end."""
    values = (*box.lower, *box.upper, *(v for c, r in spheres for v in (*c, r)))
    den = 2 * common_denominator(values)
    axes = convexsets._grid_axes(
        zip(scaled(box.lower, den), scaled(box.upper, den)), integer=True
    )
    framed = [(scaled(c, den), scaled((r,), den)[0]) for c, r in spheres]
    return F(convexsets._sphere_gap(axes, framed), den)


# float boxes whose axis midpoint rounds onto a bound ((lo + hi) / 2 is lo
# for adjacent floats), next to a degenerate axis and an ordinary one
_ROUNDING_BOXES = [
    (
        vector_space(3, math.inf),
        (0.0, 1.0, -0.5),
        (1.0 + 2**-52, 0.25, 0.75),
        Box((1.0, 0.5, 0.25), (math.nextafter(1.0, 2.0), 0.5, 0.5)),
    ),
    (
        vector_space(2, math.inf),
        (-3.0, 0.1),
        (0.3, 0.7),
        Box((-0.0, 0.1), (5e-324, math.nextafter(0.1, 1.0))),
    ),
]


class TestSupBoxOnSpheres:
    """The per-axis check of a d_inf box against both spheres gives the
    verdict of a plain scan over the box's sample points."""

    @given(_sup_boxes())
    @settings(max_examples=300, deadline=None)
    def test_per_axis_check_equals_the_scan(self, case):
        space, x, y, t, conv, box = case
        verdict = _on_spheres(space, x, y, t, conv, box)
        outcome, samples, max_slack, point = _scan_on_spheres(
            space, x, y, t, conv, box
        )
        assert verdict.outcome == outcome
        assert verdict.samples == samples
        assert verdict.max_slack == max_slack
        assert type(verdict.max_slack) is type(max_slack)
        assert (verdict.witness or {}).get("point") == point
        # the per-axis gap over both spheres decides as the scan does, and
        # is the slack of a box that holds
        spheres = tuple(zip((x, y), radii_for(conv, t, distance(space, x, y))))
        gap = convexsets._sphere_gap(_axis_values(box), spheres)
        assert (gap <= space.limit(DEFAULT_TOL)) == (outcome == "holds")
        if outcome == "holds":
            assert _same(gap if gap > 0 else 0, max_slack)

    @given(_sup_boxes())
    # an axis midpoint, 5/14, off the lattice of the box and the centre
    # 2/7: the least distance to x is taken there
    @example(
        (
            vector_space(1, math.inf, exact=True),
            (F(2, 7),),
            (F(8, 7),),
            F(1, 2),
            FX,
            Box((F(0),), (F(5, 7),)),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_gap_is_the_largest_gap_of_the_scan(self, case):
        space, x, y, t, conv, box = case
        points = box.sample_points()
        axes = _axis_values(box)
        assert math.prod(map(len, axes)) == len(points)
        for sphere in zip((x, y), radii_for(conv, t, distance(space, x, y))):
            c, r = sphere
            scan = max(abs(distance(space, z, c) - r) for z in points)
            assert _same(convexsets._sphere_gap(axes, (sphere,)), scan)
            if space.exact:
                assert _same(_integer_gap(box, (sphere,)), scan)

    @pytest.mark.parametrize("space, x, y, box", _ROUNDING_BOXES)
    def test_a_midpoint_rounded_onto_a_bound_equals_the_scan(self, space, x, y, box):
        axes = _axis_values(box)
        assert any(len(set(v)) < len(v) for v in axes)
        points = box.sample_points()
        gaps = []
        for sphere in zip((x, y), radii_for(FX, 0.25, distance(space, x, y))):
            c, r = sphere
            scan = max(abs(distance(space, z, c) - r) for z in points)
            assert _same(convexsets._sphere_gap(axes, (sphere,)), scan)
            gaps.append(scan)
        assert max(gaps) > 0

    def test_a_box_on_the_spheres_costs_no_per_point_distance(self, monkeypatch):
        space = vector_space(6, math.inf)
        x, y = (0.0, 0.5, -1.0, 1.5, 0.25, -0.75), (2.0, -0.5, 0.0, 1.0, 1.0, 0.0)
        rep = midpoint_set(space, x, y, 0.375, FX)
        calls = []

        def counting(*args):
            calls.append(args)
            return distance(*args)

        monkeypatch.setattr(convexsets, "distance", counting)
        verdict = sphere_equivalence_check(space, x, y, 0.375, FX)
        assert verdict.holds and verdict.samples == len(rep.sample_points()) == 243
        assert len(calls) == 1  # d(x, y) for the radii

    def test_sample_points_read_the_axis_values(self):
        box = Box((F(0), F(1), F(2)), (F(1), F(1), F(3)))
        assert _axis_values(box) == [
            (0, F(1, 2), 1),
            (1,),
            (2, F(5, 2), 3),
        ]
        assert box.sample_points() == list(itertools.product(*_axis_values(box)))


# rationals with unlike denominators, ints among them
_RATIONAL = st.one_of(
    st.integers(-2, 2), st.fractions(min_value=-2, max_value=2, max_denominator=12)
)


@st.composite
def _exact_simplices(draw, max_dim=8):
    """(x, y, r1): an exact d_1 simplex in dimension 1 to max_dim with some
    axes degenerate (x_i = y_i) and r1 one of 0, d, a sum of caps, or a
    fraction of d."""
    dim = draw(st.integers(1, max_dim))
    x = tuple(draw(st.lists(_RATIONAL, min_size=dim, max_size=dim)))
    y = tuple(draw(st.one_of(st.just(a), _RATIONAL)) for a in x)
    assume(x != y)
    caps = [abs(b - a) for a, b in zip(x, y)]
    r1 = draw(
        st.one_of(
            st.just(F(0)),
            st.just(sum(caps, F(0))),
            st.sets(st.integers(0, dim - 1)).map(lambda s: sum((caps[i] for i in s), F(0))),
            st.integers(0, 16).map(lambda k: sum(caps, F(0)) * F(k, 16)),
        )
    )
    return x, y, r1


class TestExactSimplexArithmetic:
    """The integer paths of an exact CappedSimplex against the Fraction
    forms they replace."""

    @given(_exact_simplices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_integer_nearest_equals_the_fraction_walk(self, case, data):
        x, y, r1 = case
        z = tuple(data.draw(st.lists(_RATIONAL, min_size=len(x), max_size=len(x))))
        walked = convexsets._simplex_walk(z, x, y, r1)
        assert CappedSimplex(x, y, r1).nearest_with_distance(z)[1] == tuple(walked)

    def test_a_float_point_is_walked_without_the_integer_path(self):
        rep = CappedSimplex((F(0), F(0)), (F(2), F(2)), F(2))
        assert rep.nearest_with_distance((0.5, 0.5))[1] == (1.5, 0.5)
        assert rep.contains((1.5, 0.5)) and not rep.contains((0.5, 0.5))


# floats with signed zeros and repeated halves among them, and a few ints
_FLOAT = st.one_of(
    st.floats(-4, 4),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0]),
    st.integers(-3, 3),
)


@st.composite
def _float_simplices(draw):
    """(x, y, r1): a float d_1 simplex in dimension 1-10 with r1 one of 0,
    d, a float sum of caps, a fraction of d or any float in [0, d]."""
    dim = draw(st.integers(1, MAX_SIMPLEX_AXES))
    x = tuple(draw(st.lists(_FLOAT, min_size=dim, max_size=dim)))
    y = tuple(draw(st.one_of(st.just(a), _FLOAT)) for a in x)
    assume(x != y)
    caps = [abs(b - a) for a, b in zip(x, y)]
    d = sum(caps)
    r1 = draw(
        st.one_of(
            st.just(0.0),
            st.just(d),
            st.sets(st.integers(0, dim - 1)).map(lambda s: sum(caps[i] for i in sorted(s))),
            st.integers(0, 16).map(lambda k: d * k / 16),
            st.floats(0, d),
        )
    )
    return x, y, r1


@st.composite
def _mixed_simplices(draw):
    """(x, y, r1): an int r1 over ints and Fractions with denominator 1 or
    2, where a moved coordinate is an int unless a Fraction enters its
    sum."""
    dim = draw(st.integers(1, 6))
    coord = st.one_of(st.integers(-3, 3), st.integers(-6, 6).map(lambda k: F(k, 2)))
    x = tuple(draw(st.lists(coord, min_size=dim, max_size=dim)))
    y = tuple(draw(st.one_of(st.just(a), coord)) for a in x)
    assume(x != y)
    d = sum(abs(a - b) for a, b in zip(x, y))
    return x, y, draw(st.integers(0, math.ceil(d)))


def _all_fractions(case):
    x, y, r1 = case
    return tuple(map(F, x)), tuple(map(F, y)), F(r1)


@st.composite
def _points_around(draw, x, y, rational):
    """A point inside the coordinate box of x and y, or anywhere near it."""
    if rational:
        return tuple(draw(st.lists(_RATIONAL, min_size=len(x), max_size=len(x))))
    inside = st.tuples(
        *(st.floats(float(min(a, b)), float(max(a, b))) for a, b in zip(x, y))
    )
    anywhere = st.lists(_FLOAT, min_size=len(x), max_size=len(x)).map(tuple)
    return draw(st.one_of(inside, anywhere))


@st.composite
def _simplex_kernel_cases(draw):
    """(space, rep, z) in dimension 1-10: a rational simplex with a
    rational point in the exact space, a rational simplex with a float
    point in the float space, a float simplex with a float point, or a
    simplex of ints and Fractions with an int point in the float space."""
    kind = draw(st.sampled_from(["exact", "exact-float-point", "float", "rational"]))
    if kind == "float":
        x, y, r1 = draw(_float_simplices())
    elif kind == "rational":
        # mostly ints, walked in rationals although the space is a float one
        x, y, r1 = draw(_mixed_simplices())
    else:
        x, y, r1 = draw(_exact_simplices(max_dim=MAX_SIMPLEX_AXES))
    if kind == "rational":
        z = tuple(draw(st.lists(st.integers(-4, 4), min_size=len(x), max_size=len(x))))
    else:
        z = draw(_points_around(x, y, rational=kind == "exact"))
    return vector_space(len(x), 1, exact=kind == "exact"), CappedSimplex(x, y, r1), z


def _same(a, b) -> bool:
    """Equal in value and type, floats bit for bit (signed zeros apart)."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def _same_points(ps, qs) -> bool:
    return len(ps) == len(qs) and all(
        len(p) == len(q) and all(map(_same, p, q)) for p, q in zip(ps, qs)
    )


def _combination_vertices(rep):
    """The vertices of a CappedSimplex from every cap set that
    `itertools.combinations` gives, each cap sum taken in full."""
    axes = [i for i, (a, b) in enumerate(zip(rep.x, rep.y)) if a != b]
    caps = {i: abs(rep.y[i] - rep.x[i]) for i in axes}
    points = []
    for k in range(len(axes) + 1):
        for full in itertools.combinations(axes, k):
            left = rep.r1 - sum(caps[i] for i in full)
            if left < 0:
                continue
            z = list(rep.x)
            for i in full:
                z[i] = rep.y[i]
            if not left:
                points.append(tuple(z))
                continue
            for j in axes:
                if j not in full and left < caps[j]:
                    w = list(z)
                    w[j] += left if rep.y[j] > rep.x[j] else -left
                    points.append(tuple(w))
    return list(dict.fromkeys(points))


class TestSimplexKernels:
    """The d_1 simplex kernels against the plain forms they replace, equal
    in value and type."""

    @example(
        (
            vector_space(2, 1),
            CappedSimplex((0.0, -0.0), (1.0, 0.5), 0.75),
            (-0.0, 0.0),
        )
    )
    @example((vector_space(1, 1), CappedSimplex((-0.0,), (2.0,), 0.0), (0.0,)))
    @given(_simplex_kernel_cases())
    @settings(max_examples=400, deadline=None)
    def test_fused_nearest_distance_equals_distance_to_the_nearest(self, case):
        space, rep, z = case
        value, near = rep.nearest_with_distance(z)
        # rational inputs are walked in rationals in any space, others in floats
        rational = all(map(is_rational, (*z, *rep.x, *rep.y, rep.r1)))
        assert isinstance(value, F) is rational
        own = vector_space(space.dim, 1, exact=rational)
        assert _same(value, distance(own, z, near))
        # the Hausdorff kernel takes the distance of the space
        value, w = hausdorff_nearest(space, z, rep)
        assert _same_points([w], [near])
        assert _same(value, distance(space, z, near))

    # rounding makes two cap sets give the same float vertex
    @example(((1e-17, -0.30000000000000004), (0.2, -0.7), 0.5999999999999999))
    @given(
        st.one_of(
            _float_simplices(),
            _exact_simplices(max_dim=MAX_SIMPLEX_AXES),
            _exact_simplices(max_dim=MAX_SIMPLEX_AXES).map(_all_fractions),
            _mixed_simplices(),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_pruned_vertices_equal_the_combinations(self, case):
        rep = CappedSimplex(*case)
        assert _same_points(rep.sample_points(), _combination_vertices(rep))

    @given(_float_simplices(), st.sampled_from(list(MidConvention)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_float_vertex_scan_equals_the_pairwise_scan(self, case, conv, data):
        x, y, r1 = case
        space = vector_space(len(x), 1)
        t = data.draw(st.floats(0.01, 0.99))
        if data.draw(st.booleans()):
            rep = midpoint_set(space, x, y, t, conv)
        else:
            rep = CappedSimplex(x, y, r1)
        verdict = _on_spheres(space, x, y, t, conv, rep)
        points = rep.sample_points()
        if not points:
            assert verdict.fails and verdict.samples == 0
            return
        outcome, samples, max_slack, point = _scan_on_spheres(
            space, x, y, t, conv, rep
        )
        assert (verdict.outcome, verdict.samples) == (outcome, samples)
        assert _same(verdict.max_slack, max_slack)
        assert (verdict.witness or {}).get("point") == point


@st.composite
def _simplices_to_check(draw):
    """(space, x, y, t, conv, rep): an exact d_1 pair with t in [-1/8, 9/8],
    and the midpoint simplex of its radii, or one with another r1, a moved
    endpoint or swapped endpoints."""
    x, y, _ = draw(_exact_simplices())
    space = vector_space(len(x), 1, exact=True)
    t = F(draw(st.integers(-2, 18)), 16)
    conv = draw(st.sampled_from(list(MidConvention)))
    r1, _ = radii_for(conv, t, distance(space, x, y))
    u, v = x, y
    move = draw(st.sampled_from(["keep", "keep", "radius", "endpoint", "swap"]))
    if move == "radius":
        r1 += F(draw(st.sampled_from([-1, 1])), draw(st.integers(1, 16)))
    elif move == "endpoint":
        i = draw(st.integers(0, len(x) - 1))
        u = x[:i] + (x[i] + F(1, 4),) + x[i + 1 :]
    elif move == "swap":
        u, v = y, x
    return space, x, y, t, conv, CappedSimplex(u, v, r1)


def _refuse_sample_points(self):
    raise AssertionError("sample_points called")


class TestSimplexOnSpheres:
    """The closed-form check of an exact d_1 simplex against both spheres
    gives the verdict of a plain scan over its vertices, without
    enumerating them: it reports `samples` 0."""

    @given(_simplices_to_check())
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_the_scan(self, case):
        space, x, y, t, conv, rep = case
        # the set `sphere_equivalence_check` builds takes the closed form;
        # any other set, and a t it refuses, takes the scan
        built = 0 < t < 1 and rep == midpoint_set(space, x, y, t, conv)
        with pytest.MonkeyPatch.context() as mp:
            if built:
                mp.setattr(CappedSimplex, "sample_points", _refuse_sample_points)
                verdict = sphere_equivalence_check(space, x, y, t, conv)
            else:
                verdict = _on_spheres(space, x, y, t, conv, rep)
        if not rep.sample_points():
            assert verdict.fails and verdict.samples == 0
            return
        outcome, samples, max_slack, point = _scan_on_spheres(
            space, x, y, t, conv, rep
        )
        assert verdict.outcome == outcome
        assert verdict.samples == (0 if built else samples)
        assert verdict.max_slack == max_slack
        assert type(verdict.max_slack) is type(max_slack)
        assert (verdict.witness or {}).get("point") == point

    def test_a_simplex_that_breaks_the_invariant_names_a_point(self):
        space = vector_space(3, 1, exact=True)
        x, y = (F(0), F(0), F(0)), (F(2), F(1), F(0))
        rep = CappedSimplex(x, y, F(3, 2))  # the spheres ask for r1 = 3/4
        verdict = _on_spheres(space, x, y, F(1, 4), FX, rep)
        assert verdict.fails
        assert verdict.witness["point"] == rep.sample_points()[0]
        assert verdict.witness["distance_to_x"] == F(3, 2)

    def test_a_float_parameter_in_an_exact_space_is_refused_by_the_scan(self):
        space = vector_space(3, 1, exact=True)
        x, y = (F(0), F(0), F(0)), (F(2), F(1), F(-1))
        # the simplex of a float radius, which `midpoint_set` refuses to build
        rep = CappedSimplex(x, y, radii_for(FX, 0.25, distance(space, x, y))[0])
        assert rep.r1 == 1.0 and type(rep.r1) is float
        with pytest.raises(ExactArithmeticUnsupported):
            _on_spheres(space, x, y, 0.25, FX, rep)

    def test_a_simplex_on_the_spheres_costs_no_per_vertex_distance(self, monkeypatch):
        space = vector_space(8, 1, exact=True)
        x = (F(0), F(1, 2), F(-1), F(3, 2), F(1, 4), F(-3, 4), F(1), F(0))
        y = (F(2), F(-1, 2), F(0), F(1), F(1), F(0), F(-1, 3), F(5, 7))
        rep = midpoint_set(space, x, y, F(3, 8), FX)
        calls = []

        def counting(*args):
            calls.append(args)
            return distance(*args)

        monkeypatch.setattr(convexsets, "distance", counting)
        monkeypatch.setattr(CappedSimplex, "sample_points", _refuse_sample_points)
        verdict = sphere_equivalence_check(space, x, y, F(3, 8), FX)
        assert verdict.holds and verdict.max_slack == 0
        assert verdict.samples == 0
        assert len(calls) == 1  # d(x, y) for the radii


class TestBoxSegment:
    """A d_inf segment checks its boxes in the frame they are built from."""

    def test_a_segment_of_exact_boxes_costs_no_per_point_distance(self, monkeypatch):
        space = vector_space(6, math.inf, exact=True)
        x = (F(0), F(1, 2), F(-1), F(3, 2), F(1, 4), F(-3, 4))
        y = (F(2), F(-1, 2), F(0), F(1), F(1), F(0))
        calls = []

        def counting(*args):
            calls.append(args)
            return distance(*args)

        monkeypatch.setattr(convexsets, "distance", counting)
        segment(space, x, y, [F(k, 8) for k in range(1, 8)], FX)
        assert len(calls) == 1  # d(x, y), shared by every midpoint set

    @given(_sup_boxes(), st.sampled_from([1, 3, 7]))
    @settings(max_examples=100, deadline=None)
    def test_every_stored_box_passes_the_scan_of_its_samples(self, case, steps):
        space, x, y, _, conv, _ = case
        t_grid = [F(k, steps + 1) for k in range(1, steps + 1)]
        if not space.exact:
            t_grid = [float(t) for t in t_grid]
        seg = segment(space, x, y, t_grid, conv)
        assert [t for t, _ in seg.samples] == t_grid
        for t, rep in seg.samples:
            assert rep == midpoint_set(space, x, y, t, conv)
            assert _scan_on_spheres(space, x, y, t, conv, rep)[0] == "holds"

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_a_box_grown_off_its_spheres_is_refused(self, exact, monkeypatch):
        # every grown box reaches off both spheres, where the frame's gap
        # and the scan of the box built from it both see it
        frame = convexsets._sup_frame

        def grown(*args):
            den, bounds, spheres = frame(*args)
            step = 1 if exact else 0.125  # exact bounds are integers over den
            return den, [(lo - step, hi + step) for lo, hi in bounds], spheres

        monkeypatch.setattr(convexsets, "_sup_frame", grown)
        space = vector_space(3, math.inf, exact=exact)
        t = F(1, 4) if exact else 0.25
        with pytest.raises(InternalInconsistency, match=f"t={t}"):
            segment(space, (0, 0, 0), (2, 0, 0), [t], FX)


class TestSimplexSegment:
    """An exact d_1 segment checks its simplices by their offset invariant."""

    def test_a_segment_of_exact_simplices_costs_no_per_vertex_distance(
        self, monkeypatch
    ):
        space = vector_space(8, 1, exact=True)
        x = (F(0), F(1, 2), F(-1), F(3, 2), F(1, 4), F(-3, 4), F(1), F(0))
        y = (F(2), F(-1, 2), F(0), F(1), F(1), F(0), F(-1, 3), F(5, 7))
        calls = []

        def counting(*args):
            calls.append(args)
            return distance(*args)

        monkeypatch.setattr(convexsets, "distance", counting)
        segment(space, x, y, [F(1, 8), F(1, 2)], FX)
        assert len(calls) == 1  # d(x, y), shared by every midpoint set

    @given(_exact_simplices(max_dim=6), st.sampled_from(list(MidConvention)))
    @settings(max_examples=100, deadline=None)
    def test_exact_simplices_pass_the_scan_uncounted(self, case, conv):
        x, y, _ = case
        space = vector_space(len(x), 1, exact=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CappedSimplex, "sample_points", _refuse_sample_points)
            seg = segment(space, x, y, [F(1, 4), F(1, 2), F(5, 7)], conv)
        for t, rep in seg.samples:
            outcome, _, max_slack, _ = _scan_on_spheres(space, x, y, t, conv, rep)
            assert outcome == "holds" and max_slack == 0 and type(max_slack) is int

    def test_a_passing_float_simplex_is_walked_without_the_scan(self, monkeypatch):
        space = vector_space(3, 1)
        x, y = (0.1, 0.2, -0.3), (0.7, -0.4, 0.9)
        t_grid = [0.125, 0.5, 0.875]
        scans = [
            _on_spheres(space, x, y, t, FX, midpoint_set(space, x, y, t, FX))
            for t in t_grid
        ]

        def refused(*args):
            raise AssertionError("the vertices were scanned")

        monkeypatch.setattr(convexsets, "distance_table", refused)
        monkeypatch.setattr(convexsets, "_spheres_verdict", refused)
        seg = segment(space, x, y, t_grid, FX)
        for (t, rep), scan in zip(seg.samples, scans):
            assert rep == midpoint_set(space, x, y, t, FX)
            assert _same_verdict(sphere_equivalence_check(space, x, y, t, FX), scan)

    def test_an_inside_coordinate_on_an_endpoint_takes_the_scan(self):
        # at t = 1e-18 the inside coordinate 1.0 + 2e-18 of axis 0 rounds
        # onto x_0, where a vertex may repeat another, so the walk declines
        space = vector_space(2, 1)
        x, y, t = (1.0, 0.0), (2.0, 1.0), 1e-18
        rep = midpoint_set(space, x, y, t, FX)
        radii = radii_for(FX, t, distance(space, x, y))
        assert convexsets._simplex_gap(rep, *radii, DEFAULT_TOL) is None
        verdict = sphere_equivalence_check(space, x, y, t, FX)
        assert _same_verdict(verdict, _on_spheres(space, x, y, t, FX, rep))
        assert verdict.holds and verdict.samples == 2 and verdict.max_slack == 2e-18

    @pytest.mark.parametrize("space_id, builds", [("vec3-p1", 22), ("vec3-p2", 47)])
    def test_a_segment_builds_each_midpoint_set_once(
        self, space_id, builds, monkeypatch
    ):
        build = convexsets._midpoint_rep
        calls = []

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(convexsets, "_midpoint_rep", counting)
        check_property(space_from_id(space_id), "C", plan=SamplePlan(count=40, seed=1))
        # the segment's 7 sets, each built once by its sphere check, and the
        # sets of the (C) trials
        assert len(calls) == builds


def _same_verdict(a, b) -> bool:
    """Equal reports, and equal fields in value and type, floats bit for bit."""
    same_bytes = stable_json_dumps(a.to_json()) == stable_json_dumps(b.to_json())
    return same_bytes and repr(a) == repr(b)


@st.composite
def _sphere_checks(draw):
    """(space, x, y, t, conv): a midpoint-set trial in dimension 1-6 on
    exact or float d_inf, exact or float d_1, or float d_2."""
    kind = draw(st.sampled_from(["inf-exact", "inf", "1-exact", "1", "2"]))
    dim = draw(st.integers(1, 6))
    exact = kind.endswith("exact")
    coord = _RATIONAL if exact else _FLOAT
    x = tuple(draw(st.lists(coord, min_size=dim, max_size=dim)))
    y = tuple(draw(st.one_of(st.just(a), coord)) for a in x)
    assume(x != y)
    t = draw(_EXACT_T) if exact else draw(st.floats(0.02, 0.98))
    p = {"inf": math.inf, "1": 1, "2": 2}[kind.split("-")[0]]
    conv = draw(st.sampled_from(list(MidConvention)))
    return vector_space(dim, p, exact=exact), x, y, t, conv


@st.composite
def _float_simplex_checks(draw):
    """(space, x, y, t, conv): a float d_1 trial in dimension 1 to
    MAX_SIMPLEX_AXES, with t anywhere in (0, 1) or near either end."""
    dim = draw(st.integers(1, MAX_SIMPLEX_AXES))
    x = tuple(draw(st.lists(_FLOAT, min_size=dim, max_size=dim)))
    y = tuple(draw(st.one_of(st.just(a), _FLOAT)) for a in x)
    assume(x != y)
    t = draw(
        st.one_of(
            st.floats(0, 1, exclude_min=True, exclude_max=True),
            st.sampled_from([1e-18, 1e-9, 0.02, 0.98, 1 - 1e-9, 1 - 2**-53]),
        )
    )
    conv = draw(st.sampled_from(list(MidConvention)))
    return vector_space(dim, 1), x, y, t, conv


class TestFloatSimplexWalk:
    """The walk over a float d_1 simplex's vertices against the scan of its
    listed vertices in one distance table."""

    @example((vector_space(2, 1), (1.0, 0.0), (2.0, 1.0), 1e-18, FX))
    @example((vector_space(2, 1), (1, 0), (2, 1), 0.5, FX))
    @example((vector_space(3, 1), (0, 1, -3), (2, 1.0, 3), 0.25, FY))
    @given(_float_simplex_checks())
    @settings(max_examples=300, deadline=None)
    def test_the_walk_equals_the_scan(self, case):
        space, x, y, t, conv = case
        rep = midpoint_set(space, x, y, t, conv)
        scan = _on_spheres(space, x, y, t, conv, rep)
        assert _same_verdict(sphere_equivalence_check(space, x, y, t, conv), scan)
        radii = radii_for(conv, t, distance(space, x, y))
        walked = convexsets._simplex_gap(rep, *radii, DEFAULT_TOL)
        if walked is not None:
            assert scan.holds
            assert walked[0] == scan.samples and _same(walked[1], scan.max_slack)


class TestOnePassSphereTrial:
    """`sphere_equivalence_check` in one frame against `midpoint_set`
    followed by the scan of `_spheres_verdict`."""

    @given(_sphere_checks())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_equals_set_then_check(self, case):
        space, x, y, t, conv = case
        rep = midpoint_set(space, x, y, t, conv)
        two_step = _on_spheres(space, x, y, t, conv, rep)
        if space.exact and space.p == 1:
            # the closed form counts no vertex: it is the scan with samples 0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(CappedSimplex, "sample_points", _refuse_sample_points)
                one_pass = sphere_equivalence_check(space, x, y, t, conv)
            assert one_pass.holds and one_pass.samples == 0
            two_step = dataclasses.replace(two_step, samples=0)
        else:
            one_pass = sphere_equivalence_check(space, x, y, t, conv)
        assert _same_verdict(one_pass, two_step)

    @given(_exact_simplices(max_dim=6), _EXACT_T, st.sampled_from(list(MidConvention)))
    @settings(max_examples=100, deadline=None)
    def test_library_check_counts_no_simplex_vertex(self, case, t, conv):
        x, y, _ = case
        space = vector_space(len(x), 1, exact=True)
        rep = midpoint_set(space, x, y, t, conv)
        assert _scan_on_spheres(space, x, y, t, conv, rep)[::2] == ("holds", 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CappedSimplex, "sample_points", _refuse_sample_points)
            verdict = sphere_equivalence_check(space, x, y, t, conv)
        assert verdict.holds and verdict.samples == 0 and verdict.max_slack == 0

    def test_the_menger_checker_never_counts_vertices(self, monkeypatch):
        space = vector_space(6, 1, exact=True)
        plan = SamplePlan(count=40, seed=3)
        expected = check_menger_convex(space, plan).to_json()
        monkeypatch.setattr(CappedSimplex, "sample_points", _refuse_sample_points)
        assert check_menger_convex(space, plan).to_json() == expected
        verdict = sphere_equivalence_check(space, (F(0),) * 6, (F(1),) * 6, F(1, 2))
        assert verdict.holds and verdict.samples == 0

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_an_exact_box_trial_measures_x_y_once_and_builds_no_box(
        self, exact, monkeypatch
    ):
        space = vector_space(3, math.inf, exact=exact)
        x, y, t = (F(0), F(1, 3), F(-1)), (F(2), F(0), F(1, 2)), F(3, 8)
        if not exact:
            x, y, t = tuple(map(float, x)), tuple(map(float, y)), float(t)
        calls = []

        def counting(*args):
            calls.append(args)
            return distance(*args)

        monkeypatch.setattr(convexsets, "distance", counting)
        monkeypatch.setattr(convexsets, "Box", None)
        verdict = sphere_equivalence_check(space, x, y, t, FX)
        assert verdict.holds and verdict.samples == 9 and verdict.max_slack == 0
        assert len(calls) == 1


@st.composite
def _strictly_convex_unions(draw):
    """(space, A, y, t, conv): a finite set of 1-8 float points in dimension
    1-4 under d_p for p in {1.5, 2, 3}, with y among them or a repeat of a
    point now and then."""
    dim = draw(st.integers(1, 4))
    p = draw(st.sampled_from([1.5, 2, 3]))
    point = st.lists(_FLOAT, min_size=dim, max_size=dim).map(tuple)
    y = draw(point)
    pts = draw(st.lists(st.one_of(point, st.just(y)), min_size=1, max_size=8))
    t = draw(st.floats(0.02, 0.98))
    conv = draw(st.sampled_from(list(MidConvention)))
    return vector_space(dim, p), FiniteSet(tuple(pts)), y, t, conv


class TestBatchedLiftedUnion:
    """A strictly convex lifted union, one `midpoint_set` per point, against
    `chord_points`: the same points in the same order and types."""

    @given(_strictly_convex_unions())
    @settings(max_examples=200, deadline=None)
    def test_the_union_is_the_deduplicated_chord_points(self, case):
        space, A, y, t, conv = case
        chords = chord_points(space, A.sample_points(), y, t, conv)
        assert len(chords) == len(A.sample_points())
        union = lifted_union(space, A, y, t, conv)
        assert _same_points(union.points, tuple(dict.fromkeys(chords)))

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
    @pytest.mark.parametrize(
        "dim, point, y",
        [
            # a strictly convex union took each chord with `zip`, which
            # cut (0.0,) against a 2-D y to (0.5,) and a 3-D y to 2-D
            (2, (0.0,), (1.0, 1.0)),
            (2, (0.0, 0.0), (1.0, 1.0, 1.0)),
        ],
    )
    def test_a_point_of_the_wrong_dimension_is_refused(self, p, dim, point, y):
        with pytest.raises(DimensionMismatch):
            lifted_union(vector_space(dim, p), FiniteSet((point,)), y, 0.5)

    def test_chord_points_keep_order_and_repeats(self):
        space = vector_space(2, 2)
        y = (0.0, 2.0)
        points = [(2.0, 2.0), [0.0, 2.0], (2.0, 2.0)]
        assert chord_points(space, points, y, 0.5, FY) == [(1.0, 2.0), y, (1.0, 2.0)]
        assert chord_points(space, points, y, 0.25, FX) == [(1.5, 2.0), y, (1.5, 2.0)]

    @pytest.mark.parametrize("space_id", ["vec2-p1", "vec2-pinf-exact", "l1fn-exact"])
    def test_chord_points_refuse_a_space_without_unique_midpoints(self, space_id):
        with pytest.raises(UniqueMidpointUndefined):
            chord_points(space_from_id(space_id), [(0, 0)], (1, 1), 0.5, FY)

    def test_chord_points_check_the_parameter_with_no_chord_to_take(self):
        space = vector_space(2, 2)
        with pytest.raises(MclabError, match="strictly between 0 and 1"):
            chord_points(space, [], (1.0, 1.0), 0, FY)

    def test_a_set_of_y_alone_is_y(self):
        space = vector_space(2, 2)
        y = (0.5, -1.0)
        union = lifted_union(space, FiniteSet((y, [0.5, -1.0])), y, 0.75)
        assert union.points == (y,)

    def test_a_parameter_outside_zero_one_is_refused(self):
        space = vector_space(2, 2)
        with pytest.raises(MclabError, match="strictly between 0 and 1"):
            lifted_union(space, FiniteSet(((0.0, 0.0), (1.0, 1.0))), (1.0, 1.0), 1.0)

    @pytest.mark.parametrize("space_id", ["vec2-p2", "vec2-p1", "vec2-pinf-exact"])
    def test_a_set_of_y_alone_checks_the_parameter(self, space_id):
        # with every point of A equal to y no part was built, so no t was
        # checked: t = 5 gave {y}, and so did a float t on an exact space
        space = space_from_id(space_id)
        y = (F(1, 2), F(1, 2)) if space.exact else (0.5, 0.5)
        with pytest.raises(MclabError, match="strictly between 0 and 1"):
            lifted_union(space, Singleton(y), y, 5)
        if space.exact:
            with pytest.raises(ExactArithmeticUnsupported, match="rational parameter t"):
                lifted_union(space, Singleton(y), y, 0.25)


@st.composite
def _chord_cases(draw):
    """(space, x, y, t, conv): two distinct points of dimension 1-4 under
    d_p for p in {1.5, 2, 3}."""
    dim = draw(st.integers(1, 4))
    p = draw(st.sampled_from([1.5, 2, 3]))
    point = st.lists(_FLOAT, min_size=dim, max_size=dim).map(tuple)
    x, y = draw(point), draw(point)
    assume(x != y)
    t = draw(st.floats(0.02, 0.98))
    conv = draw(st.sampled_from(list(MidConvention)))
    return vector_space(dim, p), x, y, t, conv


class TestOneChordPoint:
    """A strictly convex midpoint is one formula: every route to it builds
    the same bits, and none measures a distance to build it."""

    @given(_chord_cases())
    # `midpoint_set` took r1 / d and `unique_midpoint` 1 - t: the last bits
    # differed here, and on 1,835 of 20,000 random d_2 draws
    @example((vector_space(2, 2), (1.5, 1.75), (1.0, -0.5), 0.1, FY))
    @settings(max_examples=400, deadline=None)
    def test_every_route_builds_the_same_point(self, case):
        space, x, y, t, conv = case
        point = midpoint_set(space, x, y, t, conv).point
        checked = []
        scan = convexsets._spheres_verdict

        def keeping(space, x, y, t, conv, rep, *rest):
            checked.append(rep.point)
            return scan(space, x, y, t, conv, rep, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convexsets, "_spheres_verdict", keeping)
            sphere_equivalence_check(space, x, y, t, conv)
        routes = [
            vlerp(x, y, radii_for(conv, t, 1)[0]),
            *checked,
            *chord_points(space, [x], y, t, conv),
            *lifted_union(space, Singleton(x), y, t, conv).points,
        ]
        if conv is FY:
            routes.append(unique_midpoint(space, x, y, t))
        assert len(routes) == (5 if conv is FY else 4)
        assert _same_points([point] * len(routes), routes)

    @pytest.mark.parametrize("space_id", ["vec3-p2", "vec2-p1.5"])
    def test_midpoint_set_measures_no_distance(self, space_id, monkeypatch):
        space = space_from_id(space_id)
        calls = []

        def counting(*args):
            calls.append(args)
            raise AssertionError("a chord point measures no distance")

        for name in ("distance", "distance_table"):
            monkeypatch.setattr(convexsets, name, counting)
        x = tuple(float(i) for i in range(space.dim))
        y = tuple(c + 1.5 for c in x)
        for conv in MidConvention:
            assert type(midpoint_set(space, x, y, 0.25, conv)) is Singleton
        unique_midpoint(space, x, y, 0.25)
        assert calls == []

    @pytest.mark.parametrize("space_id", ["vec3-p2", "vec2-p1.5"])
    @pytest.mark.parametrize(
        "x, y, t, error, message",
        [
            ("x", "x", 0.5, MclabError, "distinct endpoints"),
            ("x", "y", 0, MclabError, "strictly between 0 and 1"),
            ("x", "y", 1.0, MclabError, "strictly between 0 and 1"),
            ("x", "y", -0.5, MclabError, "strictly between 0 and 1"),
            ("x", (0.0,) * 9, 0.5, DimensionMismatch, "length 9"),
        ],
        ids=["equal-endpoints", "t-zero", "t-one", "t-negative", "dimension"],
    )
    def test_midpoint_set_keeps_its_refusals(self, space_id, x, y, t, error, message):
        space = space_from_id(space_id)
        points = {"x": (0.5,) * space.dim, "y": (1.5,) * space.dim}
        with pytest.raises(error, match=message):
            midpoint_set(space, points.get(x, x), points.get(y, y), t)

    def test_a_function_space_midpoint_set_is_refused(self):
        space = l1_function_space()
        with pytest.raises(MclabError, match="vector carriers"):
            midpoint_set(space, constant_fn(0), constant_fn(1), F(1, 2))

    @pytest.mark.parametrize("space_id", ["vec3-p2", "vec2-p1.5"])
    @pytest.mark.parametrize("prop, calls", [("A", 0), ("Bprime", 80), ("C", 82)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_checker_distance_calls(self, space_id, prop, calls, seed, monkeypatch):
        # measuring d(x, y) for every chord point made (A) 40, (B') 160 and
        # (C) 136 calls at count 40; what is left is the checkers' own
        # distances, which their verdicts read.  A segment's sphere check
        # takes its chord points' distances from one `distance_table`, which
        # is not counted here
        count = []
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "mclab" and vars(mod).get("distance") is distance:
                monkeypatch.setattr(mod, "distance", lambda *a: count.append(a) or distance(*a))
        verdict = check_property(
            space_from_id(space_id), prop, plan=SamplePlan(count=40, seed=seed)
        )
        assert verdict.holds and verdict.samples == 40
        assert len(count) == calls


class TestUniqueMidpoint:
    def test_euclidean_sphere_equations(self):
        space = vector_space(2, 2)
        m = unique_midpoint(space, (0.0, 0.0), (2.0, 0.0), 0.25)
        # at distance (1-t)*d from x and t*d from y
        assert distance(space, (0.0, 0.0), m) == pytest.approx(1.5, abs=1e-12)
        assert distance(space, (2.0, 0.0), m) == pytest.approx(0.5, abs=1e-12)
        assert m == pytest.approx((1.5, 0.0))

    def test_cubic_metric_midpoint_matches_constrained_search(self):
        space = vector_space(2, 3)
        x, y, t = (0.0, 0.0), (1.0, 1.0), 1 / 3
        m = unique_midpoint(space, x, y, t)
        assert m == pytest.approx((2 / 3, 2 / 3), abs=1e-12)
        # independent oracle: grid search over the two sphere equations
        d = distance(space, x, y)
        best, best_pt = math.inf, None
        for gx in range(0, 101):
            for gy in range(0, 101):
                pt = (gx / 100, gy / 100)
                r = abs(distance(space, pt, x) - (1 - t) * d) + abs(
                    distance(space, pt, y) - t * d
                )
                if r < best:
                    best, best_pt = r, pt
        assert best_pt == pytest.approx(m, abs=1e-2)

    def test_halfway_is_the_mean(self):
        space = vector_space(3, 1.5)
        m = unique_midpoint(space, (1.0, 2.0, 3.0), (3.0, 0.0, 1.0), 0.5)
        assert m == pytest.approx((2.0, 1.0, 2.0))

    @pytest.mark.parametrize(
        "space",
        [
            vector_space(3, 1),
            vector_space(3, math.inf),
            l1_function_space(),
        ],
        ids=["d1", "dinf", "L1fn"],
    )
    def test_refused_on_non_singleton_spaces(self, space):
        with pytest.raises(UniqueMidpointUndefined):
            unique_midpoint(space, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.5)


class TestSegment:
    def test_euclidean_segment_is_collinear(self):
        space = vector_space(2, 2)
        x, y = (0.0, 0.0), (4.0, 2.0)
        seg = segment(space, x, y, [k / 8 for k in range(1, 8)])
        for t, rep in seg.samples:
            (px, py) = rep.point
            assert py * 4.0 == pytest.approx(px * 2.0, abs=1e-9)
            assert sphere_equivalence_check(space, x, y, t, FX).holds

    def test_sup_segment_carries_the_quarter_box(self):
        space = vector_space(3, math.inf, exact=True)
        seg = segment(space, (0, 0, 0), (2, 0, 0), [F(1, 4), F(1, 2)], FX)
        t, rep = seg.samples[0]
        assert t == F(1, 4)
        assert rep.lower == (F(1, 2), F(-1, 2), F(-1, 2))
        assert rep.upper == (F(1, 2), F(1, 2), F(1, 2))
        for t, _ in seg.samples:
            check = sphere_equivalence_check(space, (0, 0, 0), (2, 0, 0), t, FX)
            assert check.holds and check.max_slack == 0

    def test_a_chord_point_of_the_other_convention_is_refused(self, monkeypatch):
        # each point of such a segment lies between x and y, but off its spheres
        share = convexsets._chord_share

        def flipped(t, conv):
            return share(t, FY if conv is FX else FX)

        monkeypatch.setattr(convexsets, "_chord_share", flipped)
        with pytest.raises(InternalInconsistency, match="t=0.25"):
            segment(space_from_id("vec2-p2"), (0.0, 0.0), (4.0, 2.0), [0.25], FX)

    @pytest.mark.parametrize("scale", [1, 1e30])
    def test_a_simplex_built_at_half_its_t_is_refused(self, scale, monkeypatch):
        # the check is relative to the segment's scale, not loosened by it
        build = convexsets._midpoint_rep

        def halved(space, x, y, t, *rest):
            return build(space, x, y, t / 2, *rest)

        monkeypatch.setattr(convexsets, "_midpoint_rep", halved)
        x, y = (0.1, 0.2, -0.3), (0.7, -0.4, 0.9)
        x, y = tuple(c * scale for c in x), tuple(c * scale for c in y)
        with pytest.raises(InternalInconsistency, match="t=0.25"):
            segment(space_from_id("vec3-p1"), x, y, [0.25], FX)

    # coordinates near 1e30, where a guard with an absolute allowance of
    # DEFAULT_TOL refused every segment and this d_inf box
    X30 = (9.692967757656201e29, -1.6342029042953056e30, 9.132499968102356e29)
    Y30 = (-1.9298383065821998e30, 8.487354946641168e29, 8.060937016300782e29)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    @pytest.mark.parametrize("conv", [FX, FY])
    def test_a_segment_at_a_large_scale_is_built(self, p, conv):
        t_grid = [0.125, 0.25, 0.5]
        seg = segment(vector_space(3, p), self.X30, self.Y30, t_grid, conv)
        assert [t for t, _ in seg.samples] == t_grid

    @pytest.mark.parametrize("p", [1, math.inf])
    def test_an_exact_segment_beyond_the_float_range_is_built(self, p):
        x, y = (F(10**400), F(0)), (F(0), F(0))
        seg = segment(vector_space(2, p, exact=True), x, y, [F(1, 2)], FX)
        assert segment_points(seg)[:2] == [x, y]

    def test_a_sup_box_at_a_large_scale_is_built(self):
        space = vector_space(3, math.inf)
        rep = midpoint_set(space, self.X30, self.Y30, 0.13473562012125537)
        assert isinstance(rep, Box)

    @given(
        st.sampled_from([1, 1.5, 2, 3, math.inf]),
        st.integers(1, 6),
        # 1e-315 is subnormal, where rounding errs by an absolute amount
        st.sampled_from([1e-315, 1e-6, 1.0, 1e6, 1e30]),
        st.randoms(use_true_random=False),
        st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3),
        st.sampled_from([FX, FY]),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_float_segment_at_any_scale_is_built(self, p, dim, scale, rng, t_grid, conv):
        x = tuple(rng.uniform(-2, 2) * scale for _ in range(dim))
        y = tuple(rng.uniform(-2, 2) * scale for _ in range(dim))
        assume(x != y)
        seg = segment(vector_space(dim, p), x, y, t_grid, conv)
        assert len(seg.samples) == len(t_grid)

    @pytest.mark.parametrize(
        "space, x, y, t_grid, error, message",
        [
            (vector_space(2, math.inf, exact=True), (0, 0), (2, 0), [F(1, 2), 0.25],
             ExactArithmeticUnsupported, "rational parameter t"),
            (vector_space(2, 1, exact=True), (0, 0), (2, 0), [F(1, 2), 0.25],
             ExactArithmeticUnsupported, "rational parameter t"),
            (vector_space(2, 2), (0.0, 0.0), (2.0, 0.0), [0.5, 1.0],
             MclabError, "strictly between 0 and 1"),
            (vector_space(2, 2), (0.0, 0.0), (2.0, 0.0), iter([0.0]),
             MclabError, "strictly between 0 and 1"),
            (vector_space(2, 2), (0.0, 0.0), (2.0, 0.0, 1.0), [0.5],
             MclabError, "point of length 3"),
            (vector_space(2, 1, exact=True), (0, 0), (F(1, 2), 0.5), [F(1, 2)],
             ExactArithmeticUnsupported, "rational coordinates"),
            (vector_space(2, 2), (1.0, 1.0), (1.0, 1.0), [0.5],
             MclabError, "distinct endpoints"),
        ],
        ids=["dinf-float-t", "d1-float-t", "t-one", "t-zero-iterator", "dimension",
             "float-coordinate", "equal-endpoints"],
    )
    def test_every_midpoint_set_refusal_holds_for_a_segment(
        self, space, x, y, t_grid, error, message
    ):
        # a segment checks its endpoints and every t once, then builds each
        # midpoint set from its one d(x, y)
        with pytest.raises(error, match=message):
            segment(space, x, y, t_grid, FX)

    def test_a_function_space_segment_is_refused(self):
        space = l1_function_space()
        with pytest.raises(MclabError, match="vector carriers"):
            segment(space, constant_fn(0), constant_fn(1), [F(1, 2)], FX)

    def test_taxicab_segment_contains_non_collinear_points(self):
        space = vector_space(4, 1, exact=True)
        x, y = (F(0),) * 4, (F(1, 2),) * 4
        seg = segment(space, x, y, [F(1, 2)], FX)
        pts = segment_points(seg)
        interior = [p for p in pts if p not in (x, y)]
        assert len(set(interior)) >= 2
        chord = {tuple(c * F(1, 2) for c in y), x, y}
        assert any(p not in chord for p in interior)


# d(x, y) of HUGE overflows to inf, and that of NAN_PAIR is NaN from
# inf - inf, for every p
HUGE = (1e308, 1e308), (-1e308, -1e308)
NAN_PAIR = (math.inf, 0.0), (math.inf, 1.0)


class TestNonFiniteDistance:
    """A float pair whose measured d(x, y) is not finite has no radii to
    split and no spheres to check: every route that measures d refuses it,
    where the parent gave an inf simplex, a false `holds` or an
    `InternalInconsistency`."""

    @pytest.mark.parametrize("p", [1, 1.5, 2, math.inf])
    @pytest.mark.parametrize("pair", [HUGE, NAN_PAIR])
    def test_a_segment_is_refused(self, p, pair):
        with pytest.raises(MclabError, match="finite distance") as raised:
            segment(vector_space(2, p), *pair, [0.5])
        assert type(raised.value) is MclabError

    @pytest.mark.parametrize("p", [1, math.inf])
    @pytest.mark.parametrize("pair", [HUGE, NAN_PAIR])
    def test_a_midpoint_set_is_refused(self, p, pair):
        with pytest.raises(MclabError, match="finite distance"):
            midpoint_set(vector_space(2, p), *pair, 0.5)

    @pytest.mark.parametrize("p", [1, 1.5, 2, math.inf])
    @pytest.mark.parametrize("pair", [HUGE, NAN_PAIR])
    def test_a_sphere_check_is_refused(self, p, pair):
        with pytest.raises(MclabError, match="finite distance"):
            sphere_equivalence_check(vector_space(2, p), *pair, 0.5)

    @pytest.mark.parametrize("p", [1.5, 2, 3])
    def test_a_chord_point_measures_nothing_and_refuses_nothing(self, p):
        space = vector_space(2, p)
        assert midpoint_set(space, *HUGE, 0.5) == Singleton((-math.inf, -math.inf))
        assert unique_midpoint(space, *HUGE, 0.5) == (-math.inf, -math.inf)


class TestMembershipWithoutSlack:
    """Every set representation's `contains(z)` is exact equality by
    default, whatever the space; a caller grants slack with `tol`, as
    `space.limit(tol)` does on a float space only."""

    @pytest.mark.parametrize("space_id", ["vec2-p1", "vec2-p1-exact"])
    def test_the_default_tol_admits_no_slack(self, space_id):
        space = space_from_id(space_id)
        one = F(1) if space.exact else 1.0
        eps = F(1, 2**40) if space.exact else 2.0**-40
        zero, half = 0 * one, one / 2
        member, off = (one, half), (one + eps, half)
        reps = [
            Singleton(member),
            FiniteSet(((zero, zero), member)),
            Box((half, zero), (one, half)),
            # offsets from (0, 0) summing to 3/2 within the box of (0, 0), (1, 1)
            CappedSimplex((zero, zero), (one, one), 3 * half),
            SetUnion((Singleton((zero, zero)), Box((half, zero), member))),
        ]
        for rep in reps:
            assert rep.contains(member) and not rep.contains(off)
            assert rep.contains(off, 2 * eps)
            assert rep.contains(off, space.limit(DEFAULT_TOL)) is not space.exact

    def test_a_point_of_another_dimension_is_no_member(self):
        assert not Singleton((1, 2)).contains((1,))
        assert not FiniteSet(((0, 0), (1, 2))).contains((1,), 1)

    def test_a_box_refuses_a_point_of_another_dimension(self):
        # zipping z against the bounds judged only the shared coordinates
        box = Box((0, 0), (1, 1))
        assert box.contains((1, 1)) and box.contains((1.5, 0), 1)
        for z in [(1,), (0.5, 0.5, 0.5), ()]:
            assert not box.contains(z) and not box.contains(z, 1)


class TestLiftedUnion:
    def test_single_element_union_is_the_midpoint_set(self):
        space = vector_space(2, 2)
        A = Singleton((0.0, 0.0))
        y, t = (2.0, 2.0), 0.5
        union = lifted_union(space, A, y, t)
        direct = midpoint_set(space, (0.0, 0.0), y, t)
        assert union.points == (direct.point,)

    def test_euclidean_pair_gives_two_midpoints(self):
        space = vector_space(2, 2)
        A = FiniteSet(((0.0, 0.0), (2.0, 0.0)))
        union = lifted_union(space, A, (0.0, 2.0), 0.5)
        assert sorted(union.points) == [
            pytest.approx((0.0, 1.0)),
            pytest.approx((1.0, 1.0)),
        ]

    def test_sup_box_union_covers_per_corner_boxes(self):
        space = vector_space(2, math.inf)
        A = Box((0.0, 0.0), (1.0, 1.0))
        y, t = (3.0, 0.0), 0.5
        union = lifted_union(space, A, y, t, FX)
        # brute-force membership over a 64 x 64 grid: a point belongs iff it
        # belongs to the midpoint box of some sampled corner point of A
        corners = A.sample_points()
        boxes = [midpoint_set(space, c, y, t, FX) for c in corners]
        lo = [min(b.lower[i] for b in boxes) for i in range(2)]
        hi = [max(b.upper[i] for b in boxes) for i in range(2)]
        for i in range(64):
            for j in range(64):
                z = (
                    lo[0] + (hi[0] - lo[0]) * i / 63,
                    lo[1] + (hi[1] - lo[1]) * j / 63,
                )
                expected = any(b.contains(z) for b in boxes)
                assert union.contains(z) == expected


class TestDiameter:
    def test_singleton(self):
        space = vector_space(2, 2)
        assert diameter_with_witness(space, Singleton((1.0, 1.0)))[0] == 0

    def test_sup_box_diameter_is_max_side(self):
        space = vector_space(3, math.inf, exact=True)
        box = Box((F(1, 2), F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2), F(1, 2)))
        assert diameter_with_witness(space, box)[0] == 1
        # pairwise maximum over the corners agrees
        corners = list(itertools.product(*zip(box.lower, box.upper)))
        brute = max(
            distance(space, a, b)
            for i, a in enumerate(corners)
            for b in corners[i + 1 :]
        )
        assert brute == 1

    @pytest.mark.parametrize(
        "p, expected", [(1, 7), (1.5, 5.5843), (2, 5), (3, 4.4979)]
    )
    def test_box_diameter_is_exact_under_every_p(self, p, expected):
        space, box = vector_space(2, p), Box((0, 0), (3, 4))
        points = box.sample_points()
        brute = max(distance(space, a, b) for a in points for b in points)
        value, _ = diameter_with_witness(space, box)
        assert value == brute == pytest.approx(expected, abs=1e-4)

    def test_twelve_point_witness_set_under_taxicab(self):
        space = vector_space(4, 1, exact=True)
        pts = []
        for i, j in itertools.permutations(range(4), 2):
            coords = [F(1, 4)] * 4
            coords[i], coords[j] = F(0), F(1, 2)
            pts.append(tuple(coords))
        rep = FiniteSet(tuple(pts))
        # brute force over all 66 unordered pairs
        brute = max(
            distance(space, a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]
        )
        assert diameter_with_witness(space, rep)[0] == brute == 1
