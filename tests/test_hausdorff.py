from __future__ import annotations

import copy
import dataclasses
import importlib
import itertools
import math
import pickle
import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab import (
    Box,
    CappedSimplex,
    EmptySetError,
    FiniteSet,
    MclabError,
    SamplePlan,
    SetUnion,
    Singleton,
    check_property,
    directed_hausdorff,
    distance,
    distances,
    hausdorff,
    midpoint_set,
    segment,
    space_from_id,
    vector_space,
)
from mclab.convexsets import segment_points
from mclab.hausdorff import (
    HausdorffResult,
    _directed_boxes,
    finite_hausdorff_value,
)
from mclab.spaces import constant_fn, poly_fn


def _corners(box: Box):
    return list(itertools.product(*zip(box.lower, box.upper)))


def _grid_of_box(box: Box, per_axis: int):
    axes = []
    for lo, hi in zip(box.lower, box.upper):
        lo, hi = float(lo), float(hi)
        axes.append(
            np.array([lo]) if lo == hi else np.linspace(lo, hi, per_axis)
        )
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _brute_hausdorff_sup(A: Box, B: Box, per_axis: int = 33):
    ga, gb = _grid_of_box(A, per_axis), _grid_of_box(B, per_axis)
    dmat = np.abs(ga[:, None, :] - gb[None, :, :]).max(axis=2)
    return max(dmat.min(axis=1).max(), dmat.min(axis=0).max())


class TestBasics:
    def test_singletons_reduce_to_the_distance(self):
        space = vector_space(2, 2)
        A, B = Singleton((0.0, 0.0)), Singleton((3.0, 4.0))
        result = hausdorff(space, A, B)
        assert result.value == pytest.approx(5.0)
        assert result.witness == ((0.0, 0.0), (3.0, 4.0))

    def test_identical_sets_at_distance_zero(self):
        space = vector_space(3, math.inf, exact=True)
        A = Box((F(1, 2), F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2), F(1, 2)))
        assert hausdorff(space, A, A).value == 0

    def test_subset_has_zero_directed_distance(self):
        space = vector_space(2, 2)
        A = FiniteSet(((0.0, 0.0), (1.0, 0.0)))
        B = FiniteSet(((0.0, 0.0), (1.0, 0.0), (0.5, 2.0)))
        assert directed_hausdorff(space, A, B).value == 0
        assert directed_hausdorff(space, B, A).value > 0

    def test_point_to_segment_samples(self):
        space = vector_space(2, 2)
        seg = segment(space, (1.0, 0.0), (1.0, 1.0), [k / 8 for k in range(1, 8)])
        target = FiniteSet(tuple(segment_points(seg)))
        result = directed_hausdorff(space, Singleton((0.0, 0.0)), target)
        assert result.value == pytest.approx(1.0)


# (p, A, B): pairs of rational representations whose Hausdorff distance
# the sample points attain, measured on a float space and on an exact one
_FLAG_CASES = [
    *(
        (p, A, B)
        for p in ("1", "inf")
        for A, B in [
            (Singleton((F(1, 10), F(1, 5))), Singleton((F(3, 10), F(2, 5)))),
            (FiniteSet(((0, 0), (1, 0))), FiniteSet(((F(1, 2), 2),))),
        ]
    ),
    ("inf", Box((F(0), F(0)), (F(1), F(1))), Box((F(1, 2), F(0)), (F(2), F(1)))),
    ("1", CappedSimplex((0, 0), (2, 2), 2), Singleton((3, 0))),
]


class TestExactnessComesFromTheSpace:
    """A result is exact only on an exact space: no set representation
    carries a mode of its own."""

    def test_float_singletons_give_a_float_result(self):
        space = space_from_id("vec2-p2")
        result = hausdorff(space, Singleton((0.1, 0.2)), Singleton((0.3, 0.4)))
        assert result.exact is False

    @pytest.mark.parametrize("p, A, B", _FLAG_CASES)
    def test_the_flag_is_the_space_mode(self, p, A, B):
        for suffix, exact in (("", False), ("-exact", True)):
            space = space_from_id(f"vec2-p{p}{suffix}")
            assert hausdorff(space, A, B).exact is exact
            assert directed_hausdorff(space, A, B).exact is exact

    def test_a_simplex_outside_d1_has_no_nearest_point_form(self):
        # the d_1 walk lands on (2, 0) at d_inf 2, while (1, 1) is a member
        # at d_inf 1
        space = space_from_id("vec2-pinf-exact")
        with pytest.raises(MclabError, match="no nearest-point form"):
            directed_hausdorff(
                space, Singleton((2, 2)), CappedSimplex((0, 0), (2, 2), 2)
            )


class TestBoxPairs:
    def test_shifted_sup_boxes(self):
        space = vector_space(3, math.inf, exact=True)
        A = Box((F(1, 2), F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2), F(1, 2)))
        B = Box((1, -1, -1), (1, 1, 1))
        result = hausdorff(space, A, B)
        assert result.value == F(1, 2)
        assert result.exact
        assert directed_hausdorff(space, A, B).value == F(1, 2)
        assert directed_hausdorff(space, B, A).value == F(1, 2)
        # grid brute force confirms within one grid spacing
        brute = _brute_hausdorff_sup(A, B)
        assert abs(float(result.value) - brute) <= 2 / 32

    def test_exact_formula_matches_grid_on_seeded_pairs(self):
        space = vector_space(2, math.inf)
        rng = random.Random(42)
        for _ in range(100):
            lo1 = [rng.uniform(-2, 0) for _ in range(2)]
            hi1 = [lo + rng.uniform(0.1, 2) for lo in lo1]
            lo2 = [rng.uniform(-2, 0) for _ in range(2)]
            hi2 = [lo + rng.uniform(0.1, 2) for lo in lo2]
            A = Box(tuple(lo1), tuple(hi1))
            B = Box(tuple(lo2), tuple(hi2))
            result = hausdorff(space, A, B)
            spacing = max(
                max(h - l for l, h in zip(A.lower, A.upper)),
                max(h - l for l, h in zip(B.lower, B.upper)),
            ) / 32
            assert abs(result.value - _brute_hausdorff_sup(A, B)) <= spacing

    def test_witnesses_reproduce_the_value(self):
        space = vector_space(3, math.inf, exact=True)
        A = Box((F(1, 2), F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2), F(1, 2)))
        B = Box((1, -1, -1), (1, 1, 1))
        result = hausdorff(space, A, B)
        wa, wb = result.witness
        assert distance(space, wa, wb) == result.value
        assert A.contains(wa) or B.contains(wa)


class TestMetricAxioms:
    def test_symmetry_and_triangle_on_seeded_finite_sets(self):
        space = vector_space(2, 2)
        rng = random.Random(31)

        def random_set():
            size = rng.randint(1, 6)
            return FiniteSet(
                tuple(
                    (rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(size)
                ),
            )

        for _ in range(1000):
            A, B, C = random_set(), random_set(), random_set()
            hab = hausdorff(space, A, B).value
            hba = hausdorff(space, B, A).value
            assert hab == pytest.approx(hba, abs=1e-12)
            hac = hausdorff(space, A, C).value
            hcb = hausdorff(space, C, B).value
            assert hab <= hac + hcb + 1e-9

    def test_witness_re_evaluation_on_finite_sets(self):
        space = vector_space(2, 2)
        A = FiniteSet(((0.0, 0.0), (1.0, 1.0)))
        B = FiniteSet(((2.0, 0.0), (0.0, 2.0)))
        result = hausdorff(space, A, B)
        wa, wb = result.witness
        assert distance(space, wa, wb) == pytest.approx(result.value, abs=1e-12)


def _finite_rep(draw, point):
    """A FiniteSet of 1-6 points, possibly repeated, or a Singleton."""
    points = draw(st.lists(point, min_size=1, max_size=6))
    if len(points) == 1 and draw(st.booleans()):
        return Singleton(points[0])
    return FiniteSet(tuple(points))


@st.composite
def _finite_pairs(draw):
    """(space, A, B) for p in {1, 1.5, 2, 3, inf}; coarse half-integer
    lattices make distance ties common, floats make them rare, and floats
    from the whole range and near 0 reach the overflow and underflow
    fallbacks of `distances`."""
    p = draw(st.sampled_from([1, 1.5, 2, 3, math.inf]))
    dim = draw(st.integers(1, 4))
    exact = p in (1, math.inf) and draw(st.booleans())
    if exact:
        coord = st.integers(-3, 3).map(lambda k: F(k, 2))
    else:
        coord = st.one_of(
            st.integers(-3, 3).map(lambda k: k / 2),
            st.floats(-2, 2, allow_nan=False),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-1e-300, 1e-300),
        )
    point = st.lists(coord, min_size=dim, max_size=dim).map(tuple)
    space = vector_space(dim, p, exact=exact)
    return space, _finite_rep(draw, point), _finite_rep(draw, point)


@st.composite
def _exact_finite_triples(draw):
    p = draw(st.sampled_from([1, math.inf]))
    dim = draw(st.integers(1, 4))
    coord = st.integers(-8, 8).map(lambda k: F(k, 4))
    point = st.lists(coord, min_size=dim, max_size=dim).map(tuple)
    space = vector_space(dim, p, exact=True)
    return space, *(_finite_rep(draw, point) for _ in range(3))


@st.composite
def _exact_box_pairs(draw):
    """Two exact boxes in dimension 1-6 with some degenerate axes."""
    dim = draw(st.integers(1, 6))
    coord = st.integers(-12, 12).map(lambda k: F(k, 4))

    def box():
        lower, upper = [], []
        for _ in range(dim):
            a, b = sorted((draw(coord), draw(coord)))
            if draw(st.booleans()):
                b = a
            lower.append(a)
            upper.append(b)
        return Box(tuple(lower), tuple(upper))

    return vector_space(dim, math.inf, exact=True), box(), box()


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _witness_bits(witness):
    return [[(type(c), _bits(c)) for c in point] for point in witness]


def _row_by_row_pair(space, A, B):
    """Both directed distances between finite sets from a table built as one
    `distances` row per point of A, the column minima read off its
    transpose: the build that one `distance_table` replaced."""
    pts_a, pts_b = A.sample_points(), B.sample_points()
    table = [distances(space, a, pts_b) for a in pts_a]

    def directed(rows):
        best = witness = None
        for a, d, b in rows:
            if best is None or d > best or (d == best and (a, b) < witness):
                best, witness = d, (a, b)
        return best, witness

    exact = space.exact
    forward = directed((a, *min(zip(row, pts_b))) for a, row in zip(pts_a, table))
    backward = directed(
        (b, *min(zip(column, pts_a))) for b, column in zip(pts_b, zip(*table))
    )
    return HausdorffResult(*forward, exact), HausdorffResult(*backward, exact)


def _row_by_row_result(space, A, B):
    """hausdorff from `_row_by_row_pair`: the larger direction, the smaller
    witness on a tie."""
    forward, backward = _row_by_row_pair(space, A, B)
    if forward.value > backward.value:
        return forward
    if backward.value > forward.value:
        return backward
    return forward if forward.witness <= backward.witness else backward


def _assert_same_result(got, want):
    assert (got.witness, got.exact) == (want.witness, want.exact)
    assert type(got.value) is type(want.value)
    assert _bits(got.value) == _bits(want.value)


@st.composite
def _exact_lattice_pairs(draw):
    """(space, A, B) on the integer lattice {-2, ..., 2}^dim under exact d_1
    or d_inf, where many pairs tie; B is often A mirrored through 0, whose
    forward and backward values are equal."""
    p = draw(st.sampled_from([1, math.inf]))
    dim = draw(st.integers(1, 3))
    point = st.lists(st.integers(-2, 2).map(F), min_size=dim, max_size=dim).map(tuple)
    A = _finite_rep(draw, point)
    if draw(st.booleans()):
        B = FiniteSet(tuple(tuple(-c for c in a) for a in A.sample_points()))
    else:
        B = _finite_rep(draw, point)
    return vector_space(dim, p, exact=True), A, B


class TestFinitePairs:
    """hausdorff on two finite sets takes its two directed results; it must
    agree with the two directed distances read off a table built row by
    row."""

    @given(_finite_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_max_of_the_directed_distances(self, case):
        space, A, B = case
        forward = directed_hausdorff(space, A, B)
        backward = directed_hausdorff(space, B, A)
        if forward.value != backward.value:
            chosen = max(forward, backward, key=lambda h: h.value)
        else:
            chosen = min(forward, backward, key=lambda h: h.witness)
        expected = HausdorffResult(
            chosen.value, chosen.witness, forward.exact and backward.exact
        )
        result = hausdorff(space, A, B)
        assert result == expected
        assert type(result.value) is type(expected.value)

    @given(_exact_lattice_pairs())
    @settings(max_examples=300, deadline=None)
    def test_deciding_rows_give_the_row_by_row_witness_on_ties(self, case):
        space, A, B = case
        _assert_same_result(hausdorff(space, A, B), _row_by_row_result(space, A, B))

    @given(st.one_of(_finite_pairs(), _exact_lattice_pairs()))
    @settings(max_examples=300, deadline=None)
    def test_a_finite_pair_result_is_the_row_by_row_one(self, case):
        space, A, B = case
        want = _row_by_row_result(space, A, B)
        got = hausdorff(space, A, B)
        assert type(got.value) is type(want.value) and got.exact == want.exact
        assert _bits(got.value) == _bits(want.value)
        hausdorff(space, B, A)  # another table between the call and the read
        assert _witness_bits(got.witness) == _witness_bits(want.witness)
        assert got.witness is got.witness
        assert got == want and repr(got) == repr(want) and hash(got) == hash(want)

    def test_mixed_number_types_take_the_searched_value(self):
        # the distances 1.0 and 1 tie, and the smallest witness, ((-1,),
        # (0,)) from B to A, picks the int; the table alone gives 1.0
        space = vector_space(1, 1)
        A, B = FiniteSet(((0,),)), FiniteSet(((1.0,), (-1,)))
        result = hausdorff(space, A, B)
        _assert_same_result(result, _row_by_row_result(space, A, B))
        assert type(result.value) is int and result.witness == ((-1,), (0,))

    def test_a_finite_pair_result_is_a_frozen_value(self):
        space = vector_space(2, 2)
        A, B = FiniteSet(((0.0, 0.0), (4.0, 0.0))), FiniteSet(((0.0, 1.0),))
        result = hausdorff(space, A, B)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.witness = ()
        assert pickle.loads(pickle.dumps(result)) == result
        assert copy.deepcopy(result) == result
        assert result == HausdorffResult(math.hypot(4, 1), ((4.0, 0.0), (0.0, 1.0)), False)

    def test_a_nan_first_row_searches_every_row(self):
        # inf - inf is NaN: the NaN first row decides, as in the full scan
        space = vector_space(1, math.inf)
        A = FiniteSet(((math.inf,), (0.0,)))
        B = FiniteSet(((math.inf,),))
        result = hausdorff(space, A, B)
        assert math.isnan(result.value)
        assert result.witness == ((math.inf,), (math.inf,))

    @pytest.mark.parametrize(
        "space_id, other",
        [
            ("linffn-exact", poly_fn(0, 1)),
            ("linffn", poly_fn(0, 1)),
            ("l1fn-exact", constant_fn(2)),
            ("l1fn", constant_fn(2)),
        ],
    )
    def test_function_points_that_tie_break_to_the_smallest_witness(self, space_id, other):
        # both points of A are at distance 1 from B; functions order as
        # (breakpoints, pieces) tuples, so the constant 0 comes first
        space = space_from_id(space_id)
        A = FiniteSet((constant_fn(0), other))
        B = FiniteSet((constant_fn(1),))
        result = hausdorff(space, A, B)
        assert result.value == 1
        assert result.witness == (constant_fn(0), constant_fn(1))

    def test_ties_break_to_the_smallest_witness(self):
        space = vector_space(1, 1, exact=True)
        A = FiniteSet(((F(0),), (F(2),)))
        B = FiniteSet(((F(1),),))
        # every pair is at distance 1: forward and backward tie, and the
        # smallest witness over both directions is ((0,), (1,))
        result = hausdorff(space, A, B)
        assert result.value == 1
        assert result.witness == ((F(0),), (F(1),))
        assert result.exact


@st.composite
def _point_list_pairs(draw):
    """(space, points of A, points of B) under float d_1, d_1.5, d_2, d_3
    and d_inf and exact d_1 and d_inf, as lists or tuples of 1-6 points,
    one point often.  Float coordinates mix ints with floats, and reach
    1e-160 and 1e160, where d_p powers fall below `_DP_SUM_FLOOR` or
    raise `OverflowError` in `_flat_table`."""
    exact = draw(st.booleans())
    p = draw(st.sampled_from([1, math.inf] if exact else [1, 1.5, 2, 3, math.inf]))
    dim = draw(st.integers(1, 4))
    if exact:
        coord = st.integers(-6, 6).map(lambda k: F(k, 4))
    else:
        unit = st.floats(-2, 2, allow_nan=False)
        coord = st.one_of(
            st.integers(-3, 3),
            st.integers(-3, 3).map(lambda k: k / 2),
            unit,
            unit.map(lambda v: v * 1e-160),
            unit.map(lambda v: v * 1e160),
        )
    point = st.lists(coord, min_size=dim, max_size=dim).map(tuple)
    points = st.one_of(
        st.lists(point, min_size=1, max_size=1), st.lists(point, min_size=1, max_size=6)
    )
    as_tuple = draw(st.booleans())
    pts_a, pts_b = draw(points), draw(points)
    if as_tuple:
        pts_a, pts_b = tuple(pts_a), tuple(pts_b)
    return vector_space(dim, p, exact=exact), pts_a, pts_b


class TestValueEntry:
    """`finite_hausdorff_value` is the value of `hausdorff` on two finite
    sets, in bits and in type, on every space."""

    @given(_point_list_pairs())
    @settings(max_examples=500, deadline=None)
    def test_equals_the_hausdorff_value(self, case):
        space, pts_a, pts_b = case
        want = hausdorff(space, FiniteSet(tuple(pts_a)), FiniteSet(tuple(pts_b))).value
        got = finite_hausdorff_value(space, pts_a, pts_b)
        assert type(got) is type(want)
        assert repr(got) == repr(want)

    def test_mixed_number_types_take_the_searched_value(self):
        # the table alone gives 1.0; the smallest witness picks the int 1
        space = vector_space(1, 1)
        value = finite_hausdorff_value(space, [(0,)], [(1.0,), (-1,)])
        assert type(value) is int and value == 1

    @pytest.mark.parametrize("space_id", ["vec3-p1", "vec3-pinf"])
    def test_float_d1_and_dinf_lists_read_the_table_alone(self, space_id, monkeypatch):
        # every coordinate a float: the table's minima give the value, with
        # no directed distance and no result built
        module = importlib.import_module("mclab.hausdorff")
        calls, built, init = [], [], HausdorffResult.__init__

        def counting(*args):
            calls.append(None)
            return directed_hausdorff(*args)

        def counting_result(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(module, "directed_hausdorff", counting)
        monkeypatch.setattr(HausdorffResult, "__init__", counting_result)
        rng = random.Random(5)

        def points():
            return [
                tuple(rng.choice([rng.uniform(-2, 2), 0.5, -0.0]) for _ in range(3))
                for _ in range(rng.randint(1, 5))
            ]

        space = space_from_id(space_id)
        for _ in range(20):
            assert type(finite_hausdorff_value(space, points(), points())) is float
        assert (calls, built) == ([], [])

    def test_a_mixed_list_takes_one_hausdorff_call(self, monkeypatch):
        module = importlib.import_module("mclab.hausdorff")
        calls = []

        def counting(*args):
            calls.append(None)
            return hausdorff(*args)

        monkeypatch.setattr(module, "hausdorff", counting)
        value = finite_hausdorff_value(vector_space(1, 1), [(0,)], [(1.0,), (-1,)])
        assert type(value) is int and value == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("space_id", ["l1fn", "l1fn-exact", "linffn-exact"])
    @pytest.mark.parametrize(
        "pts_a, pts_b",
        [
            ((constant_fn(0), constant_fn(2)), (constant_fn(1),)),
            ((constant_fn(0), poly_fn(0, 1)), (constant_fn(1), poly_fn(1, -1))),
            ((poly_fn(0, 0, 1),), (constant_fn(0), poly_fn(0, 1))),
        ],
    )
    def test_function_spaces_take_the_hausdorff_value(self, space_id, pts_a, pts_b):
        space = space_from_id(space_id)
        want = hausdorff(space, FiniteSet(pts_a), FiniteSet(pts_b)).value
        got = finite_hausdorff_value(space, pts_a, pts_b)
        assert type(got) is type(want)
        assert got == want

    def test_a_nan_first_row_takes_the_searched_value(self):
        space = vector_space(1, math.inf)
        assert math.isnan(finite_hausdorff_value(space, [(math.inf,), (0.0,)], [(math.inf,)]))

    @pytest.mark.parametrize("pts_a, pts_b", [([], [(0.0,)]), ([(0.0,)], ())])
    def test_an_empty_side_is_refused_as_a_set_refuses_it(self, pts_a, pts_b):
        with pytest.raises(EmptySetError):
            finite_hausdorff_value(vector_space(1, 2), pts_a, pts_b)


class TestExactHausdorffProperties:
    """ROADMAP item 5: on exact finite sets the Hausdorff distance is a
    metric with no tolerance, and the closed-form box distance equals a
    finite brute force."""

    @given(_exact_finite_triples())
    @settings(max_examples=300, deadline=None)
    def test_symmetry_and_triangle_inequality(self, case):
        space, A, B, C = case
        hab = hausdorff(space, A, B).value
        assert hab == hausdorff(space, B, A).value
        assert hab <= hausdorff(space, A, C).value + hausdorff(space, C, B).value
        assert hausdorff(space, A, A).value == 0

    @given(_exact_box_pairs())
    @settings(max_examples=300, deadline=None)
    def test_directed_boxes_match_corners_and_clamp_points(self, case):
        # d(., B) is convex, so its maximum over A sits at a corner of A;
        # the clamp of that corner is its nearest point of B
        space, A, B = case
        brute = max(
            min(distance(space, a, b) for b in [*_corners(B), B.nearest(a)])
            for a in _corners(A)
        )
        value, (wa, wb) = _directed_boxes(A, B)
        assert value == brute
        assert A.contains(wa) and B.contains(wb)
        assert distance(space, wa, wb) == value


@st.composite
def _union_pairs(draw):
    """(space, A, B): B a union of 1-5 boxes, singletons, finite sets and,
    under d_1, capped simplices, A a finite set or such a union, under d_1
    or d_inf, exact or float.  Points on a half-integer lattice make ties
    common."""
    p = draw(st.sampled_from([1, math.inf]))
    dim = draw(st.integers(1, 4))
    exact = draw(st.booleans())
    half = (lambda k: F(k, 2)) if exact else (lambda k: k / 2)
    coord = st.integers(-4, 4).map(half)
    if not exact:
        coord = st.one_of(coord, st.floats(-2, 2))
    point = st.lists(coord, min_size=dim, max_size=dim).map(tuple)

    def part():
        kinds = ["box", "singleton", "finite"] + (["simplex"] if p == 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "simplex":
            x, y = draw(point), draw(point)
            d = sum(abs(a - b) for a, b in zip(x, y))
            r1 = d * draw(st.sampled_from([0, F(1, 4), F(1, 2), 1]))
            return CappedSimplex(x, y, r1 if exact else float(r1))
        if kind == "box":
            lower, upper = zip(*(sorted((draw(coord), draw(coord))) for _ in range(dim)))
            return Box(lower, upper)
        return _finite_rep(draw, point)

    def union():
        return SetUnion(tuple(part() for _ in range(draw(st.integers(1, 5)))))

    A = union() if draw(st.booleans()) else _finite_rep(draw, point)
    return vector_space(dim, p, exact=exact), A, union()


def _plain_directed(space, A, B):
    """The max over A's sample points of the distance to the nearest point
    of B, every row over every part; ties break to the smallest (a, b)."""

    def nearest(a, part):
        if isinstance(part, FiniteSet):
            return min((distance(space, a, b), b) for b in part.points)
        if isinstance(part, CappedSimplex):
            b = part.nearest_with_distance(a)[1]
        else:
            b = part.nearest(a)
        return distance(space, a, b), b

    rows = [(a, *min(nearest(a, part) for part in B.parts)) for a in A.sample_points()]
    value = max(d for _, d, _ in rows)
    return value, min((a, b) for a, d, b in rows if d == value)


class TestUnionEarlyBreak:
    """directed_hausdorff to a union stops a row once it cannot decide the
    value; it must give the value and witness of the plain max over rows."""

    @given(_union_pairs())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_plain_max_over_rows(self, case):
        space, A, B = case
        value, witness = _plain_directed(space, A, B)
        result = directed_hausdorff(space, A, B)
        assert type(result.value) is type(value)
        if isinstance(value, float):
            assert result.value.hex() == value.hex()
        else:
            assert result.value == value
        assert result.witness == witness
        assert [list(map(type, w)) for w in result.witness] == [
            list(map(type, w)) for w in witness
        ]

    @given(_union_pairs())
    @settings(max_examples=150, deadline=None)
    def test_every_order_of_the_parts_gives_the_same_value_and_witness(self, case):
        space, A, B = case
        want = directed_hausdorff(space, A, B)
        for parts in itertools.permutations(B.parts):
            union = SetUnion(parts)
            got = directed_hausdorff(space, A, union)
            assert type(got.value) is type(want.value)
            assert _bits(got.value) == _bits(want.value)
            assert got.witness == want.witness
            # equal pairs that differ in type or in the sign of a zero go to
            # the part listed first, as in the plain scan
            assert _witness_bits(got.witness) == _witness_bits(
                _plain_directed(space, A, union)[1]
            )

    @pytest.mark.parametrize(
        "space, A, B, nearest",
        [
            (
                vector_space(1, 1, exact=True),
                FiniteSet(((F(-3),), (F(2),))),
                SetUnion((Singleton((F(1),)), Box((-3,), (1,)))),
                (F(1),),
            ),
            (
                vector_space(1, 1),
                FiniteSet(((-3.0,), (2.0,))),
                SetUnion((Singleton((0.0,)), Box((-3.0,), (-0.0,)))),
                (0.0,),
            ),
        ],
    )
    def test_equal_pairs_go_to_the_part_listed_first(self, space, A, B, nearest):
        # the first row moves the box to the front; the second row ties the
        # box's nearest point with the singleton, which is listed first
        result = directed_hausdorff(space, A, B)
        assert _witness_bits(result.witness) == _witness_bits((A.points[1], nearest))

    def test_a_tied_row_after_the_best_still_moves_the_witness(self):
        space = vector_space(1, 1, exact=True)
        # (2,) and (-2,) are both at distance 1 from B; the smaller witness
        # comes from the later row
        A = FiniteSet(((F(2),), (F(-2),)))
        B = SetUnion((Singleton((F(3),)), Singleton((F(-1),)), Singleton((F(1),))))
        result = directed_hausdorff(space, A, B)
        assert result.value == 1
        assert result.witness == ((F(-2),), (F(-1),))


class TestWorkCounts:
    """The nearest-point searches that (B'') spends are deterministic; a
    change that brings back wasted walks fails here."""

    @pytest.mark.parametrize("seed, calls", [(1, 547), (2, 1207), (3, 69)])
    def test_nearest_calls_of_a_float_d1_bdoubleprime_check(self, seed, calls, monkeypatch):
        module = importlib.import_module("mclab.hausdorff")
        nearest, count = module._nearest, []

        def counting(*args):
            count.append(None)
            return nearest(*args)

        monkeypatch.setattr(module, "_nearest", counting)
        check_property(
            space_from_id("vec6-p1"), "Bdoubleprime", plan=SamplePlan(count=40, seed=seed)
        )
        assert len(count) == calls

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_float_d2_bdoubleprime_trial_measures_no_chord_row(self, seed, monkeypatch):
        # (B'') reads only Hausdorff values, and a chord point is built from
        # t alone; a chord row per trial (40 here) or a directed distance
        # per value read would mean that work is back
        module = importlib.import_module("mclab.hausdorff")
        distances = importlib.import_module("mclab.spaces").distances
        rows, searches = [], []

        def counting(*args):
            rows.append(None)
            return distances(*args)

        def searching(*args):
            searches.append(None)
            return directed_hausdorff(*args)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "mclab" and vars(mod).get("distances") is distances:
                monkeypatch.setattr(mod, "distances", counting)
        monkeypatch.setattr(module, "directed_hausdorff", searching)
        verdict = check_property(
            space_from_id("vec3-p2"), "Bdoubleprime", plan=SamplePlan(count=40, seed=seed)
        )
        assert verdict.samples == 40
        assert (len(rows), len(searches)) == (0, 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_float_d2_bprime_check_calls_no_hausdorff(self, seed, monkeypatch):
        # (B') on chord points reads the value only: one `hausdorff` call,
        # or one result, per trial (40 here) would mean that work is back
        module = importlib.import_module("mclab.properties")
        calls, built, init = [], [], HausdorffResult.__init__

        def counting(*args):
            calls.append(None)
            return hausdorff(*args)

        def counting_result(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(module, "hausdorff", counting)
        monkeypatch.setattr(HausdorffResult, "__init__", counting_result)
        verdict = check_property(
            space_from_id("vec3-p2"), "Bprime", plan=SamplePlan(count=40, seed=seed)
        )
        assert verdict.holds and verdict.samples == 40
        assert (len(calls), len(built)) == (0, 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_failing_float_d2_bprime_trial_builds_the_hausdorff_witness(self, seed):
        # with no tolerance, rounding fails (B') on d_2: the witness is the
        # one `hausdorff` gives for the trial's two midpoint sets
        space = space_from_id("vec3-p2")
        verdict = check_property(space, "Bprime", plan=SamplePlan(count=40, seed=seed), tol=0)
        assert verdict.outcome == "fails"
        w = verdict.witness
        cx = midpoint_set(space, w["x"], w["y"], w["t"])
        cz = midpoint_set(space, w["z"], w["y"], w["t"])
        result = hausdorff(space, cx, cz)
        assert _witness_bits(w["hausdorff_witness"]) == _witness_bits(result.witness)
        assert _bits(w["lhs"]) == _bits(result.value)

    @pytest.mark.parametrize("space_id", ["vec3-p1", "vec3-pinf"])
    def test_a_failing_bprime_check_off_chord_points_calls_hausdorff_once_a_trial(
        self, space_id, monkeypatch
    ):
        # the failing trial's witness reuses its one result
        module = importlib.import_module("mclab.properties")
        calls = []

        def counting(*args):
            calls.append(None)
            return hausdorff(*args)

        monkeypatch.setattr(module, "hausdorff", counting)
        verdict = check_property(
            space_from_id(space_id), "Bprime", plan=SamplePlan(count=40, seed=1)
        )
        assert verdict.outcome == "fails"
        assert len(calls) == verdict.samples

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_float_d2_bdoubleprime_check_builds_no_set_or_result(self, seed, monkeypatch):
        # (B'') reads only Hausdorff values: 4 finite sets and 2 results
        # per trial would mean its set and result objects are back
        built = []
        post_init, init = FiniteSet.__post_init__, HausdorffResult.__init__

        def counting_set(self):
            built.append(FiniteSet)
            post_init(self)

        def counting_result(self, *args, **kwargs):
            built.append(HausdorffResult)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FiniteSet, "__post_init__", counting_set)
        monkeypatch.setattr(HausdorffResult, "__init__", counting_result)
        space = space_from_id("vec3-p2")
        verdict = check_property(space, "Bdoubleprime", plan=SamplePlan(count=40, seed=seed))
        assert verdict.samples == 40
        assert built == []
        # the counters see what `hausdorff` builds: two directed results
        # and the chosen one, for a finite pair as for any other
        hausdorff(space, FiniteSet(((0.0,) * 3,)), FiniteSet(((1.0,) * 3,)))
        hausdorff(space, Singleton((0.0,) * 3), Box((0.0,) * 3, (1.0,) * 3))
        assert built == [FiniteSet, FiniteSet, *[HausdorffResult] * 6]
