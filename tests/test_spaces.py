from __future__ import annotations

import math
import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mclab import (
    ConfigError,
    DimensionMismatch,
    ExactArithmeticUnsupported,
    MclabError,
    MetricSpace,
    PiecewisePoly,
    SamplePlan,
    UniqueMidpointUndefined,
    check_property,
    constant_fn,
    distance,
    distance_table,
    distances,
    estimate_uniform_modulus,
    l1_function_space,
    linf_function_space,
    pl_distance,
    poly_fn,
    space_from_id,
    unique_midpoint,
    vector_space,
)
from mclab.spaces import PW_POLY, VECTOR, space_id, vlerp


class TestVectorDistance:
    def test_sup_metric_axis_pair(self):
        space = vector_space(3, math.inf, exact=True)
        assert distance(space, (0, 0, 0), (2, 0, 0)) == 2

    def test_identity_is_zero_for_every_p(self):
        for p in (1, 1.5, 2, 3, math.inf):
            space = vector_space(2, p)
            assert distance(space, (0.3, -0.7), (0.3, -0.7)) == 0

    def test_euclidean_unit_diagonal(self):
        space = vector_space(2, 2)
        # brute-force evaluation of the p = 2 sum
        expected = (abs(1 - 0) ** 2 + abs(0 - 1) ** 2) ** 0.5
        assert distance(space, (1.0, 0.0), (0.0, 1.0)) == pytest.approx(expected)
        assert expected == pytest.approx(math.sqrt(2))

    def test_dimension_mismatch(self):
        space = vector_space(3, 2)
        with pytest.raises(DimensionMismatch):
            distance(space, (1.0, 2.0), (0.0, 0.0, 0.0))

    def test_exact_mode_rejects_intermediate_p(self):
        with pytest.raises(ExactArithmeticUnsupported):
            vector_space(2, 2, exact=True)

    def test_exact_outputs_are_rational_and_reproducible(self):
        space = vector_space(3, 1, exact=True)
        a = (F(1, 3), F(-2, 7), F(5, 11))
        b = (F(2, 3), F(3, 7), F(-1, 11))
        first = distance(space, a, b)
        assert isinstance(first, F)
        for _ in range(5):
            assert distance(space, a, b) == first

    def test_exact_space_rejects_float_coordinates(self):
        space = vector_space(2, 1, exact=True)
        with pytest.raises(ExactArithmeticUnsupported):
            distance(space, (0.5, 0.5), (F(1, 2), F(1, 2)))

    @pytest.mark.parametrize("p", [1, 1.5, 2, math.inf])
    def test_float_distance_checks_the_length_of_either_point(self, p):
        # a float point is checked for its length only; a wrong one raises
        # what `check_point` raises, first for the first argument
        space = vector_space(3, p)
        good = (0.0, 1.0, 2.0)
        for bad in [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)]:
            message = f"point of length {len(bad)} in a 3-dimensional space"
            for a, b in [(bad, good), (good, bad), (bad, bad[:1])]:
                with pytest.raises(DimensionMismatch) as got:
                    distance(space, a, b)
                assert str(got.value) == message

    @pytest.mark.parametrize("p", [1, math.inf])
    def test_exact_distance_refuses_a_float_in_either_point(self, p):
        space = vector_space(2, p, exact=True)
        good = (F(1, 2), 1)
        for a, b in [((0.5, 1), good), (good, (F(1, 2), 1.0))]:
            with pytest.raises(ExactArithmeticUnsupported):
                distance(space, a, b)


SPACES_FOR_AXIOMS = [
    vector_space(3, 1),
    vector_space(3, 1.5),
    vector_space(3, 2),
    vector_space(3, 3),
    vector_space(3, math.inf),
    vector_space(4, 1, exact=True),
    vector_space(4, math.inf, exact=True),
]


@pytest.mark.parametrize("space", SPACES_FOR_AXIOMS, ids=lambda s: s.id)
def test_metric_axioms_on_seeded_triples(space):
    rng = random.Random(987)
    slack_floor = 0 if space.exact else -1e-12

    def pt():
        if space.exact:
            return tuple(F(rng.randint(-32, 32), 16) for _ in range(space.dim))
        return tuple(rng.uniform(-2, 2) for _ in range(space.dim))

    for _ in range(10_000):
        x, y, z = pt(), pt(), pt()
        dxy = distance(space, x, y)
        assert dxy >= 0
        assert distance(space, y, x) == dxy  # symmetry, exactly
        triangle_slack = distance(space, x, z) + distance(space, z, y) - dxy
        assert triangle_slack >= slack_floor
        assert distance(space, x, x) == 0


@given(
    st.lists(st.fractions(min_value=-4, max_value=4), min_size=3, max_size=3),
    st.lists(st.fractions(min_value=-4, max_value=4), min_size=3, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_exact_taxicab_symmetry_and_rationality(xs, ys):
    space = vector_space(3, 1, exact=True)
    a, b = tuple(xs), tuple(ys)
    d = distance(space, a, b)
    assert distance(space, b, a) == d
    assert isinstance(d, (int, F))
    assert d == sum(abs(p - q) for p, q in zip(a, b))


# ints and rationals with unlike denominators, mixed in one vector
_RATIONAL = st.one_of(
    st.integers(-40, 40), st.fractions(min_value=-4, max_value=4, max_denominator=60)
)


@st.composite
def _exact_triples(draw):
    """(space, x, y, z) on an exact id: d_1 or d_inf, dimension 1-6."""
    dim = draw(st.integers(1, 6))
    space = vector_space(dim, draw(st.sampled_from([1, math.inf])), exact=True)
    points = [tuple(draw(st.lists(_RATIONAL, min_size=dim, max_size=dim))) for _ in range(3)]
    return (space, *points)


class TestExactIntegerKernel:
    """Exact d_1 and d_inf sum or maximise integer differences over one
    common denominator."""

    @given(_exact_triples())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_fraction_formula(self, case):
        space, a, b, _ = case
        diffs = [abs(F(u) - F(v)) for u, v in zip(a, b)]
        expected = max(diffs) if space.p == math.inf else sum(diffs)
        assert distance(space, a, b) == expected

    @given(_exact_triples())
    @settings(max_examples=300, deadline=None)
    def test_metric_axioms_hold_with_no_tolerance(self, case):
        space, x, y, z = case
        dxy = distance(space, x, y)
        assert distance(space, x, x) == 0
        assert (dxy == 0) == (x == y)
        assert distance(space, y, x) == dxy
        assert distance(space, x, z) + distance(space, z, y) >= dxy


# rationals with unlike denominators
_COEFF = st.builds(F, st.integers(-24, 24), st.sampled_from([1, 2, 3, 8]))


@st.composite
def _exact_functions(draw, quadratic):
    """A rational piecewise polynomial with up to three interior breakpoints;
    linear pieces only when `quadratic` is false."""
    cuts = draw(st.lists(st.integers(1, 11), max_size=3, unique=True))
    degree = 3 if quadratic else 2
    pieces = [
        tuple(draw(st.lists(_COEFF, min_size=degree, max_size=degree))) + (0,) * (3 - degree)
        for _ in range(len(cuts) + 1)
    ]
    return PiecewisePoly((F(0), *sorted(F(c, 12) for c in cuts), F(1)), tuple(pieces))


@st.composite
def _function_triples(draw, sid):
    """(f, g, h) for linffn-exact with quadratic pieces, or for l1fn-exact
    with linear pieces, whose sign changes are rational.  Now and then g is
    f itself, f split at one more breakpoint, or f plus a difference on one
    piece that a wrong metric misses: c (x - u)(x - v), zero at both ends,
    for the sup metric, and c (x - m), of integral zero, for the L1 one."""
    quadratic = sid == "linffn-exact"
    fns = _exact_functions(quadratic=quadratic)
    f, g, h = draw(fns), draw(fns), draw(fns)
    same = draw(st.sampled_from(["no", "no", "copy", "split", "perturb"]))
    bps = f.breakpoints
    i = draw(st.integers(0, len(bps) - 2))
    u, v = bps[i], bps[i + 1]
    if same == "copy":
        g = f
    elif same == "split":
        g = PiecewisePoly(
            (*bps[: i + 1], (u + v) / 2, *bps[i + 1 :]),
            (*f.pieces[: i + 1], f.pieces[i], *f.pieces[i + 1 :]),
        )
    elif same == "perturb":
        c = draw(st.integers(1, 4))
        bump = (c * u * v, -c * (u + v), c) if quadratic else (-c * (u + v) / 2, c, 0)
        piece = tuple(a + b for a, b in zip(f.pieces[i], bump))
        g = PiecewisePoly(bps, (*f.pieces[:i], piece, *f.pieces[i + 1 :]))
    return f, g, h


def _equal_functions(f, g):
    """Piecewise polynomials of degree <= 2 agree on an interval exactly when
    they agree at three points inside it."""
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    return all(
        f.value(q) == g.value(q)
        for u, v in zip(grid, grid[1:])
        for q in (u + (v - u) / 4, (u + v) / 2, u + 3 * (v - u) / 4)
    )


class TestExactFunctionSpaceAxioms:
    """Identity, symmetry and the triangle inequality on the exact function
    spaces, with no tolerance."""

    @pytest.mark.parametrize("sid", ["linffn-exact", "l1fn-exact"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_metric_axioms_hold_with_no_tolerance(self, sid, data):
        space = space_from_id(sid)
        f, g, h = data.draw(_function_triples(sid))
        dfg = distance(space, f, g)
        assert isinstance(dfg, (int, F))
        assert distance(space, f, f) == 0
        assert (dfg == 0) == _equal_functions(f, g)
        assert distance(space, g, f) == dfg
        assert distance(space, f, h) + distance(space, h, g) >= dfg


# floats (subnormals included, and now and then any finite float, whose
# powers and differences overflow), ints and both signed zeros
_FLOAT_COORD = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-50, 50),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def _float_vectors(draw, dim, count, coord=_FLOAT_COORD):
    """`count` vectors of `dim` coordinates, some of them repeated."""
    vector = st.lists(coord, min_size=dim, max_size=dim).map(tuple)
    pool = draw(st.lists(vector, min_size=1, max_size=count))
    return draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))


@st.composite
def _float_fans(draw):
    """(space, y, points) on a float id: p in {1, 1.5, 2, 3, inf},
    dimension 1-6, 1-40 points, now and then all ints, where d_1 and d_inf
    stay ints; y is now and then one of the points."""
    dim = draw(st.integers(1, 6))
    space = vector_space(dim, draw(st.sampled_from([1, 1.5, 2, 3, math.inf])))
    coord = draw(st.sampled_from([_FLOAT_COORD, st.integers(-50, 50)]))
    points = draw(_float_vectors(dim, draw(st.integers(1, 40)), coord))
    fresh = _float_vectors(dim, 1, coord).map(lambda v: v[0])
    y = draw(st.one_of(fresh, st.sampled_from(points)))
    return space, y, points


@st.composite
def _exact_fans(draw):
    """(space, y, points) on an exact id: d_1 or d_inf of dimension 1-6, or
    linffn-exact and l1fn-exact with the pieces of their axiom test."""
    kind = draw(st.sampled_from(["vector", "linffn-exact", "l1fn-exact"]))
    if kind == "vector":
        dim = draw(st.integers(1, 6))
        space = vector_space(dim, draw(st.sampled_from([1, math.inf])), exact=True)
        point = st.lists(_RATIONAL, min_size=dim, max_size=dim).map(tuple)
    else:
        space = space_from_id(kind)
        point = _exact_functions(quadratic=kind == "linffn-exact")
    return space, draw(point), draw(st.lists(point, min_size=1, max_size=8))


def _bits(values):
    """Each value with its type, floats by their bits: signed zeros and
    last-bit changes differ."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def _assert_pairwise(space, y, points):
    got = distances(space, y, points)
    assert _bits(got) == _bits([distance(space, q, y) for q in points])


class TestOneToManyDistances:
    """`distances(space, y, points)` is the per-pair list bit for bit: the
    fixed-point search compares its values, so a last-bit change moves the
    search path."""

    @given(_float_fans())
    @settings(max_examples=300, deadline=None)
    def test_float_kernel_equals_the_pairwise_list(self, case):
        _assert_pairwise(*case)

    @given(_exact_fans())
    @settings(max_examples=100, deadline=None)
    def test_exact_and_function_spaces_equal_the_pairwise_list(self, case):
        _assert_pairwise(*case)

    @pytest.mark.parametrize(
        "sid", ["vec3-p1", "vec3-p1.5", "vec3-p2", "vec3-pinf", "vec3-p1-exact", "vec3-pinf-exact"]
    )
    def test_a_point_of_the_wrong_length_raises(self, sid):
        space = space_from_id(sid)
        good = (0, F(1, 2), 2) if space.exact else (0.0, 1.0, 2)
        for y, points in [(good, [good, (1, 2)]), ((1, 2), [good]), (good, [good * 2])]:
            with pytest.raises(DimensionMismatch):
                distances(space, y, points)


# the float coordinates above, and coordinates near +-1e-300 whose powers
# fall below the sum floor of d_p
_TABLE_COORD = st.one_of(_FLOAT_COORD, st.floats(-1e-300, 1e-300))


@st.composite
def _tables(draw):
    """(space, rows, cols): 0-8 rows and 0-8 columns, and 1 x 1 now and
    then, on a float d_p id (p in {1, 1.5, 2, 3, inf}, dimension 1-6,
    coordinates over the whole float range, near 0 and ints), on exact d_1
    or d_inf with mixed denominators, or on either exact function space."""
    kind = draw(st.sampled_from(["float", "float", "exact", "linffn-exact", "l1fn-exact"]))
    if kind == "float":
        dim = draw(st.integers(1, 6))
        space = vector_space(dim, draw(st.sampled_from([1, 1.5, 2, 3, math.inf])))
        coord = draw(st.sampled_from([_TABLE_COORD, st.integers(-50, 50)]))
        point = st.lists(coord, min_size=dim, max_size=dim).map(tuple)
    elif kind == "exact":
        dim = draw(st.integers(1, 6))
        space = vector_space(dim, draw(st.sampled_from([1, math.inf])), exact=True)
        point = st.lists(_RATIONAL, min_size=dim, max_size=dim).map(tuple)
    else:
        space = space_from_id(kind)
        point = _exact_functions(quadratic=kind == "linffn-exact")
    one = draw(st.booleans()) and draw(st.booleans())
    rows = draw(st.lists(point, min_size=int(one), max_size=1 if one else 8))
    cols = draw(st.lists(point, min_size=int(one), max_size=1 if one else 8))
    if rows and cols and draw(st.booleans()):
        # a point on both sides puts a 0 on the diagonal
        cols[draw(st.integers(0, len(cols) - 1))] = rows[0]
    return space, rows, cols


class TestDistanceTable:
    """`distance_table` and `distances` are the pairwise lists bit for bit:
    the Hausdorff witnesses and the fixed-point search compare their
    values, so a last-bit change would move a witness or a search path."""

    @given(_tables())
    @settings(max_examples=500, deadline=None)
    def test_the_table_and_its_rows_equal_the_pairwise_lists(self, case):
        space, rows, cols = case
        table = distance_table(space, rows, cols)
        want = [[distance(space, a, b) for b in cols] for a in rows]
        assert type(table) is list and all(type(row) is list for row in table)
        assert [_bits(row) for row in table] == [_bits(row) for row in want]
        for y in rows:
            _assert_pairwise(space, y, cols)

    @pytest.mark.parametrize("p", [2, 3])
    def test_int_and_fraction_coordinates_take_float_powers(self, p):
        # under an int p an int or Fraction difference keeps an exact power
        # unless it is raised as a float, as `distance` raises it
        space = vector_space(2, p)
        points = [
            (0, 0),
            (11039399448020941, F(49, 27)),
            (-72666893601578375, F(80, 33)),
            (0.5, 1),
        ]
        table = distance_table(space, points, points)
        want = [[distance(space, a, b) for b in points] for a in points]
        assert [_bits(row) for row in table] == [_bits(row) for row in want]

    @pytest.mark.parametrize(
        "sid", ["vec3-p1", "vec3-p1.5", "vec3-p2", "vec3-pinf", "vec3-p1-exact", "vec3-pinf-exact"]
    )
    def test_a_point_of_the_wrong_length_raises(self, sid):
        space = space_from_id(sid)
        good = (0, F(1, 2), 2) if space.exact else (0.0, 1.0, 2)
        for bad in [(1, 2), good * 2]:
            for rows, cols in [
                ([good, bad], [good, good]),
                ([good], [good, bad]),
                ([bad], [good]),
                ([bad], []),
                ([], [bad]),
            ]:
                with pytest.raises(DimensionMismatch):
                    distance_table(space, rows, cols)


class TestDpRange:
    """d_p for 1 < p < inf keeps its value where the powers of the
    differences underflow or overflow a float."""

    @pytest.mark.parametrize(
        "sid, a, b, want",
        [
            ("vec1-p2", (0.0,), (1e-200,), 1e-200),
            ("vec2-p1.5", (0, 0), (1e-250, 0), 1e-250),
            ("vec2-p3", (0.0, 0.0), (1e120, 0.0), 1e120),
            # subnormal powers whose root lies far above 1e-100
            ("vec1-p4", (0.0,), (1e-80,), 1e-80),
            ("vec2-p10", (0.0, 0.0), (0.0, 1e-31), 1e-31),
        ],
    )
    def test_out_of_range_differences(self, sid, a, b, want):
        space = space_from_id(sid)
        assert distance(space, a, b) == want
        assert distances(space, b, [a, b]) == [want, 0.0]

    @pytest.mark.parametrize("p", ["1.5", "2", "3"])
    def test_an_infinite_difference_is_an_infinite_distance(self, p):
        space = space_from_id(f"vec2-p{p}")
        a, b = (-1e308, 1.0), (1e308, 0.0)
        assert distance(space, a, b) == math.inf
        assert distances(space, b, [a, b]) == [math.inf, 0.0]


@pytest.mark.parametrize("p", [float("nan"), 0.5, -math.inf])
def test_a_vector_p_below_one_or_nan_is_refused(p):
    # p = nan built a space whose every distance was nan
    with pytest.raises(MclabError, match=r"p must lie in \[1, inf\]"):
        vector_space(2, p)


class TestFloatMetricAxioms:
    """Identity and symmetry hold with no tolerance on the float vector ids,
    over the whole float range; the triangle inequality holds up to
    4 * N * eps * (d(x, y) + d(y, z)), which covers the relative rounding of
    the N differences, powers and sums and of the root on each side, plus
    2 * N * 2**-1074 for the absolute rounding of subnormal differences."""

    @pytest.mark.parametrize("p", ["1", "1.5", "2", "3", "inf"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, p, data):
        dim = data.draw(st.integers(1, 6))
        space = space_from_id(f"vec{dim}-p{p}")
        # now and then only subnormals, where the absolute term is needed
        whole = st.one_of(_FLOAT_COORD, st.floats(-1e-300, 1e-300))
        coord = data.draw(st.sampled_from([whole, st.floats(-1e-318, 1e-318)]))
        x, y, z = data.draw(_float_vectors(dim, 3, coord))
        if data.draw(st.booleans()):
            # a point on the segment, where the inequality is tight; vlerp
            # overflows near +-1e308 (see its docstring)
            w = vlerp(x, z, data.draw(st.floats(0, 1)))
            if all(map(math.isfinite, w)):
                y = w
        dxy, dyz = distance(space, x, y), distance(space, y, z)
        assert distance(space, x, x) == 0
        assert distance(space, y, x) == dxy
        bound = 4 * space.dim * sys.float_info.epsilon * (dxy + dyz)
        bound += 2 * space.dim * 2**-1074
        assert distance(space, x, z) <= dxy + dyz + bound


class TestPiecewiseDistance:
    def test_a_function_carrier_names_its_metric_by_p(self):
        assert (l1_function_space().p, linf_function_space().p) == (1, math.inf)
        assert [space_id(s) for s in (l1_function_space(), linf_function_space())] == [
            "l1fn-exact",
            "linffn-exact",
        ]
        with pytest.raises(MclabError, match="p = 1"):
            MetricSpace(PW_POLY, None, 2, False)

    def test_constants_in_integral_metric(self):
        space = l1_function_space()
        assert pl_distance(space, constant_fn(0), constant_fn(2)) == 2

    @pytest.mark.parametrize("a", [F(1, 4), F(1, 2), F(3, 4)])
    def test_tent_functions_at_unit_distance(self, a):
        space = l1_function_space()
        left = (2, F(-2) / a, 0)
        right = (2 - F(2) / (1 - a), F(2) / (1 - a), 0)
        tent = PiecewisePoly((0, a, 1), (left, right))
        assert pl_distance(space, constant_fn(0), tent) == 1
        assert pl_distance(space, constant_fn(2), tent) == 1

    def test_parabola_in_sup_metric(self):
        space = linf_function_space()
        assert pl_distance(space, constant_fn(0), poly_fn(0, 0, 2)) == 2

    def test_sup_metric_uses_interior_vertex(self):
        space = linf_function_space()
        # x - x^2 peaks at 1/4 in the middle of [0, 1]
        f = poly_fn(0, 1, -1)
        assert pl_distance(space, f, constant_fn(0)) == F(1, 4)

    def test_breakpoint_validation(self):
        with pytest.raises(Exception):
            PiecewisePoly((0, F(1, 2)), ((0, 0, 0),))
        with pytest.raises(Exception):
            PiecewisePoly((0, F(1, 2), F(1, 2), 1), ((0, 0, 0),) * 3)

    def test_exact_mode_refuses_irrational_sign_root(self):
        exact = l1_function_space(exact=True)
        # x^2 - 1/2 crosses zero at 1/sqrt(2)
        f = poly_fn(F(-1, 2), 0, 1)
        with pytest.raises(ExactArithmeticUnsupported):
            pl_distance(exact, f, constant_fn(0))
        loose = l1_function_space(exact=False)
        value = pl_distance(loose, poly_fn(-0.5, 0.0, 1.0), constant_fn(0.0))
        # closed form: 2 * integral splits at 1/sqrt(2)
        r = 1 / math.sqrt(2)
        left = abs(r**3 / 3 - r / 2)
        right = abs((1 / 3 - 1 / 2) - (r**3 / 3 - r / 2))
        assert value == pytest.approx(left + right, abs=1e-12)


def _eval_pw(fn: PiecewisePoly, xs: np.ndarray) -> np.ndarray:
    bps = np.array([float(b) for b in fn.breakpoints])
    idx = np.clip(np.searchsorted(bps, xs, side="right") - 1, 0, len(fn.pieces) - 1)
    c = np.array([[float(v) for v in piece] for piece in fn.pieces])
    return c[idx, 0] + c[idx, 1] * xs + c[idx, 2] * xs * xs


def _random_pw(rng: random.Random) -> PiecewisePoly:
    """Continuous random piecewise quadratic: c0 of each piece is chosen to
    match the previous piece's value, so panels never straddle a jump."""
    k = rng.randint(1, 4)
    cuts = sorted(rng.uniform(0.05, 0.95) for _ in range(k - 1))
    bps = tuple([0.0] + cuts + [1.0])
    pieces = []
    value_at = rng.uniform(-2, 2)
    for i in range(k):
        c1, c2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        b = bps[i]
        c0 = value_at - c1 * b - c2 * b * b
        pieces.append((c0, c1, c2))
        nb = bps[i + 1]
        value_at = c0 + c1 * nb + c2 * nb * nb
    return PiecewisePoly(bps, tuple(pieces))


def test_integral_metric_agrees_with_midpoint_rule():
    """Independent quadrature oracle: 10^6 midpoint panels per function pair."""
    space = l1_function_space(exact=False)
    rng = random.Random(20240601)
    panels = 1_000_000
    xs = (np.arange(panels) + 0.5) / panels
    for _ in range(100):
        f, g = _random_pw(rng), _random_pw(rng)
        closed = pl_distance(space, f, g)
        quad = float(np.abs(_eval_pw(f, xs) - _eval_pw(g, xs)).mean())
        assert abs(closed - quad) < 1e-6


def test_space_id_round_trip():
    for sid in ["vec3-p2", "vec5-pinf-exact", "vec4-p1-exact", "vec2-p1.5", "l1fn-exact", "linffn"]:
        assert space_from_id(sid).id == sid


_P_TEXT = st.one_of(
    st.integers(1, 10**20).map(str),
    st.decimals(1, 10**6, places=12).map(str),
    st.floats(1, 1e15).map(repr),
    st.just("inf"),
)


@given(st.integers(1, 9), _P_TEXT, st.booleans())
@example(1, "56741487426496510", False)
@settings(max_examples=500, deadline=None)
def test_every_accepted_space_id_names_its_own_space(dim, p_text, exact):
    # p written with 6 significant digits named another space: vec3-p1 for
    # vec3-p1.0000000001, vec2-p1.23457 for vec2-p1.2345678; the id of a p
    # the float's shortest decimal gives as 5.674148742649651e+16 was
    # refused; and vec1-p56741487426496510 was accepted as the space whose
    # id is vec1-p56741487426496512
    sid = f"vec{dim}-p{p_text}" + ("-exact" if exact else "")
    try:
        space = space_from_id(sid)
    except ConfigError:
        return
    assert space_from_id(space.id) == space
    assert space_from_id(space.id).label == space.label
    if p_text.isdigit():
        assert space.id == sid


@pytest.mark.parametrize("p_text", ["56741487426496510", "56741487426496510.0"])
def test_an_integer_p_that_is_not_its_floats_value_is_refused(p_text):
    with pytest.raises(ConfigError, match="does not round-trip through a float"):
        space_from_id(f"vec1-p{p_text}")


@pytest.mark.parametrize("tag, p", [("2", 2), ("1.5", 1.5), ("1.10", 1.1), ("2.0", 2)])
def test_space_id_p_in_any_decimal_form_of_its_float(tag, p):
    assert space_from_id(f"vec2-p{tag}").p == p


@pytest.mark.parametrize(
    "sid, unique",
    [
        ("vec2-p2", True),
        ("vec3-p1.5", True),
        ("vec2-p3", True),
        ("vec2-p1", False),
        ("vec2-p1-exact", False),
        ("vec2-pinf", False),
        ("vec2-pinf-exact", False),
        ("l1fn-exact", False),
        ("linffn", False),
    ],
)
def test_unique_midpoints_gates_every_single_valued_operation(sid, unique):
    space = space_from_id(sid)
    assert space.unique_midpoints is unique
    if space.carrier == VECTOR:
        x, y = (0,) * space.dim, (1,) + (0,) * (space.dim - 1)
    else:
        x, y = constant_fn(0), constant_fn(1)
    assert check_property(space, "B", plan=SamplePlan(count=3, seed=1)).refused is not unique
    operations = [
        lambda: unique_midpoint(space, x, y, F(1, 2)),
        lambda: estimate_uniform_modulus(space, [0.5]),
    ]
    for operation in operations:
        if unique:
            operation()
        else:
            with pytest.raises(UniqueMidpointUndefined):
                operation()
