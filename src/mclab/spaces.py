"""Concrete metric spaces and distance evaluation.

Two carrier kinds are supported: real/rational vectors of a fixed dimension
under the d_p family of metrics (p in [1, inf]), and piecewise-polynomial
functions on [0, 1] of degree at most 2 under the integral metric (p = 1) or
the supremum metric (p = inf).  Every operation runs in one of two
arithmetic modes: exact, where scalars are `fractions.Fraction` and results
are bit-exact rationals, or float.  Exact mode is restricted to p in
{1, inf} on either carrier, the metrics whose values stay rational for
rational inputs: d_1, d_inf, the integral metric, and the sup metric (the
supremum of a rational piecewise quadratic is attained at a rational point).
"""
from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .arith import Scalar, common_denominator, is_rational, rational_sqrt, scaled
from .errors import (
    ConfigError,
    DimensionMismatch,
    ExactArithmeticUnsupported,
    InternalInconsistency,
    MclabError,
    UniqueMidpointUndefined,
)

VECTOR = "vector"
PW_POLY = "pwpoly"

_EXACT_P_VALUES = (1, math.inf)


@dataclass(frozen=True)
class MetricSpace:
    """Space descriptor: carrier kind, dimension, metric exponent p,
    arithmetic mode.  A function carrier's p names its metric: 1 the
    integral metric, inf the sup metric."""

    carrier: str
    dim: int | None
    p: float
    exact: bool

    def __post_init__(self):
        if self.carrier == VECTOR:
            if self.dim is None or self.dim < 1:
                raise MclabError("vector carrier needs a positive dimension")
            if self.p is None or not self.p >= 1:
                raise MclabError("p must lie in [1, inf]")
        elif self.carrier == PW_POLY:
            if self.p not in _EXACT_P_VALUES:
                raise MclabError("function carriers take p = 1 (L1) or p = inf (sup)")
            if self.dim is not None:
                raise MclabError("function carriers have no vector dimension")
        else:
            raise MclabError(f"unknown carrier {self.carrier!r}")
        if self.exact and self.p not in _EXACT_P_VALUES:
            raise ExactArithmeticUnsupported(
                f"exact arithmetic supports p in {{1, inf}}, not p={self.p}"
            )

    @property
    def id(self) -> str:
        return space_id(self)

    @property
    def unique_midpoints(self) -> bool:
        """Whether every midpoint set is a single point: only the strictly
        convex d_p, 1 < p < inf; p = 1 and p = inf, on either carrier, have
        midpoint sets with distinct points."""
        return self.p not in _EXACT_P_VALUES

    def require_unique_midpoints(self) -> None:
        """Refuse, with UniqueMidpointUndefined, a space whose midpoint sets
        are not single points: every operation that takes the unique
        midpoint goes through here."""
        if not self.unique_midpoints:
            raise UniqueMidpointUndefined(
                f"midpoint sets of {self.label} are not singletons; "
                "no unique midpoint exists"
            )

    @property
    def label(self) -> str:
        """The space as reports name it: (R^n, d_p) or the function space."""
        if self.carrier == VECTOR:
            return f"(R^{self.dim}, d_{_p_tag(self.p)})"
        return "the function space"

    def limit(self, tol):
        """The largest slack a sampled identity may show: 0 in exact
        arithmetic, where identities hold exactly, else `tol`."""
        return 0 if self.exact else tol


def vector_space(dim: int, p: float, exact: bool = False) -> MetricSpace:
    return MetricSpace(VECTOR, dim, p, exact)


def l1_function_space(exact: bool = True) -> MetricSpace:
    return MetricSpace(PW_POLY, None, 1, exact)


def linf_function_space(exact: bool = True) -> MetricSpace:
    return MetricSpace(PW_POLY, None, math.inf, exact)


def _p_tag(p) -> str:
    """p as an id and a label write it: `inf`, an integer, or the repr of
    a float, its shortest decimal that reads back as the same float, so
    that no two spaces share an id."""
    if p == math.inf:
        return "inf"
    return str(int(p)) if p == int(p) else repr(p)


def space_id(space: MetricSpace) -> str:
    if space.carrier == VECTOR:
        suffix = "-exact" if space.exact else ""
        return f"vec{space.dim}-p{_p_tag(space.p)}{suffix}"
    tag = "l1fn" if space.p == 1 else "linffn"
    return tag + ("-exact" if space.exact else "")


_VECTOR_ID = re.compile(r"^vec(\d+)-p(inf|\d+(?:\.\d+)?)(-exact)?$")
_FN_ID = re.compile(r"^(l1fn|linffn)(-exact)?$")


def space_from_id(text: str) -> MetricSpace:
    """The space an id names; an id that names none raises ConfigError."""
    if not isinstance(text, str):
        raise ConfigError(f"a space id is a string, not {text!r}")
    m = _VECTOR_ID.match(text)
    if m:
        dim = int(m.group(1))
        p = math.inf if m.group(2) == "inf" else float(m.group(2))
        # the float must be the decimal given: an integer float its own
        # value, which `space_id` writes (56741487426496510 reads as
        # 56741487426496512 and would name a report after that), any other
        # its shortest decimal (1.10 reads as 1.1) or its own value; a p
        # that overflows or rounds would name another space
        if m.group(2) != "inf" and (
            p == math.inf
            or Decimal(m.group(2))
            not in ((Decimal(p),) if p == int(p) else (Decimal(repr(p)), Decimal(p)))
        ):
            raise ConfigError(
                f"p={m.group(2)} in space id {text!r} does not round-trip "
                f"through a float (it reads as {p!r})"
            )
        if p != math.inf and p == int(p):
            p = int(p)
        try:
            return vector_space(dim, p, exact=bool(m.group(3)))
        except MclabError as exc:
            raise ConfigError(str(exc)) from exc
    m = _FN_ID.match(text)
    if m:
        exact = bool(m.group(2))
        if m.group(1) == "l1fn":
            return l1_function_space(exact)
        return linf_function_space(exact)
    raise ConfigError(f"unknown space id {text!r}")


# --------------------------------------------------------------------------
# vector helpers

def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(a, s):
    return tuple(x * s for x in a)


def vlerp(a, b, w):
    """Point a + w*(b - a), exact when the inputs are exact.  In floats b - a
    overflows to inf near +-1e308, and then w = 0 gives NaN."""
    return tuple([x + w * (y - x) for x, y in zip(a, b)])


def check_point(space: MetricSpace, point) -> None:
    if space.carrier == VECTOR:
        if len(point) != space.dim:
            raise DimensionMismatch(
                f"point of length {len(point)} in a {space.dim}-dimensional space"
            )
        if space.exact and not all(is_rational(c) for c in point):
            raise ExactArithmeticUnsupported("exact space requires rational coordinates")
    else:
        if not isinstance(point, PiecewisePoly):
            raise MclabError("function carrier expects PiecewisePoly points")
        if space.exact and not point.is_rational():
            raise ExactArithmeticUnsupported(
                "exact space requires rational breakpoints and coefficients"
            )


# --------------------------------------------------------------------------
# piecewise polynomials on [0, 1]

@dataclass(frozen=True, order=True)
class PiecewisePoly:
    """Piecewise polynomial of degree <= 2 on [0, 1].

    `pieces[i]` is the coefficient triple (c0, c1, c2) of c0 + c1*x + c2*x**2
    valid on [breakpoints[i], breakpoints[i+1]].  Coefficients are global in
    x, not local to the piece.  Points order as (breakpoints, pieces)
    tuples, which is how Hausdorff ties break to the smallest witness.
    """

    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        bps = self.breakpoints
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
            raise MclabError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise MclabError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(bps) - 1:
            raise MclabError("need one coefficient triple per interval")
        if any(len(p) != 3 for p in self.pieces):
            raise MclabError("each piece is a (c0, c1, c2) triple")

    def is_rational(self) -> bool:
        return all(is_rational(b) for b in self.breakpoints) and all(
            is_rational(c) for piece in self.pieces for c in piece
        )

    def value(self, x):
        idx = bisect_right(self.breakpoints, x) - 1
        idx = min(max(idx, 0), len(self.pieces) - 1)
        return _quad_value(self.pieces[idx], x)


def constant_fn(c: Scalar) -> PiecewisePoly:
    return PiecewisePoly((0, 1), ((c, 0, 0),))


def poly_fn(c0: Scalar, c1: Scalar = 0, c2: Scalar = 0) -> PiecewisePoly:
    return PiecewisePoly((0, 1), ((c0, c1, c2),))


# --------------------------------------------------------------------------
# distances

def distance(space: MetricSpace, a, b) -> Scalar:
    """Distance between two points of the space, exact in exact mode."""
    if space.carrier == VECTOR:
        return _vector_distance(space, a, b)
    return pl_distance(space, a, b)


def _vector_distance(space: MetricSpace, a, b) -> Scalar:
    # a float point is checked for its length only, as `_flat_table` checks
    # it: `check_point` runs on an exact space, or to raise
    p, dim = space.p, space.dim
    if space.exact or len(a) != dim or len(b) != dim:
        check_point(space, a)
        check_point(space, b)
    if space.exact:
        # integer differences over one common denominator: one Fraction is
        # built at the end instead of one per coordinate step
        den = common_denominator((*a, *b))
        diffs = [abs(u - v) for u, v in zip(scaled(a, den), scaled(b, den))]
        return Fraction(max(diffs) if p == math.inf else sum(diffs), den)
    diffs = [abs(x - y) for x, y in zip(a, b)]
    if p == math.inf:
        return max(diffs)
    if p == 1:
        return sum(diffs)
    try:
        total = sum([float(d) ** p for d in diffs])
    except OverflowError:
        total = math.inf
    if _DP_SUM_FLOOR <= total < math.inf:
        return total ** (1.0 / p)
    return _dp_rescaled(diffs, p)


# The smallest sum of powers sum(d ** p) (1 < p < inf) whose root is taken
# as it stands, for every p: below it the powers may have underflowed or be
# subnormal.  A subnormal power is off by at most 2**-1075, and over fewer
# than 2**40 coordinates these errors stay below 2**-53 of this floor, so
# above it the sum keeps a float's precision.
_DP_SUM_FLOOR = 1e-292


def _dp_rescaled(diffs, p) -> float:
    """The d_p value of `diffs` where the sum of their powers is below
    _DP_SUM_FLOOR or overflows: recomputed relative to the largest
    difference m as m * sum((d / m) ** p) ** (1 / p)."""
    m = max(diffs)
    if m == 0 or m == math.inf:
        # identical points are at 0.0, as the plain formula gives; an
        # infinite difference is an infinite distance, where d / m is NaN
        return 0.0 if m == 0 else math.inf
    return m * sum((d / m) ** p for d in diffs) ** (1.0 / p)


def distances(space: MetricSpace, y, points) -> list:
    """`[distance(space, q, y) for q in points]`, equal in value and type:
    the one-row case of `distance_table`, for the fixed-point objective and
    a point's nearest member of a finite set.  A single point is one
    `distance`, which sets up less than a table."""
    if space.carrier != VECTOR or len(points) == 1:
        return [distance(space, q, y) for q in points]
    return _flat_table(space, (y,), points)


def distance_table(space: MetricSpace, rows, cols) -> list:
    """`[[distance(space, a, b) for b in cols] for a in rows]`, equal in
    value and type, with every point checked once: the table of a finite
    Hausdorff pair, and of a set's sphere scan against x and y.  A table of
    one entry is one `distance`."""
    if space.carrier != VECTOR or len(rows) * len(cols) == 1:
        return [[distance(space, a, b) for b in cols] for a in rows]
    flat, n = _flat_table(space, rows, cols), len(cols)
    if not n:
        return [[] for _ in rows]
    return [flat[i : i + n] for i in range(0, len(flat), n)]


def _flat_table(space: MetricSpace, rows, cols) -> list:
    """The distances d(a, b) between vector points, a over `rows` and b
    over `cols`, in one row-major list.  The columnar core: every point is
    checked once (a float point for its length only, so `check_point` runs
    there only to raise), each axis of the rows and of the columns is
    transposed once, and one list comprehension per axis takes the terms of
    every entry, the difference that `distance` takes (|a_i - b_i| equals
    |b_i - a_i| bit for bit) and, for 1 < p < inf, its float power.  Each
    entry's terms are then reduced in coordinate order with the same
    `sum`/`max` and root as `distance`.  An exact space first scales every
    point once to one common denominator and builds one Fraction per
    entry."""
    p, dim, exact = space.p, space.dim, space.exact
    for q in (*rows, *cols):
        if exact or len(q) != dim:
            check_point(space, q)
    if exact:
        den = common_denominator([c for q in (*rows, *cols) for c in q])
        rows = [scaled(a, den) for a in rows]
        cols = [scaled(b, den) for b in cols]
    # one row, as `distances` asks, skips the loop over the row's one value:
    # that loop made `distances` of 2 or 3 points 5-9% slower
    one = len(rows) == 1
    axes = zip(rows[0], zip(*cols)) if one else zip(zip(*rows), zip(*cols))
    if p == math.inf or p == 1:
        if one:
            terms = [[abs(v - c) for c in ca] for v, ca in axes]
        else:
            terms = [[abs(v - c) for v in ra for c in ca] for ra, ca in axes]
        flat = list(map(max if p == math.inf else sum, zip(*terms)))
        return [Fraction(t, den) for t in flat] if exact else flat
    # with a float exponent, x ** p converts an int or Fraction x as
    # float(x) does, so each term is the `float(d) ** p` of `distance`
    p = float(p)
    try:
        if one:
            terms = [[abs(v - c) ** p for c in ca] for v, ca in axes]
        else:
            terms = [[abs(v - c) ** p for v in ra for c in ca] for ra, ca in axes]
    except OverflowError:
        return [distance(space, a, b) for a in rows for b in cols]
    root = 1.0 / p
    totals = list(map(sum, zip(*terms)))
    # an infinite total makes the sum infinite, and a sum is cheaper than a max
    if totals and (min(totals) < _DP_SUM_FLOOR or sum(totals) == math.inf):
        # the totals out of range (0 where a row is a column among them)
        # are taken pair by pair, where `distance` recomputes them
        pairs = ((a, b) for a in rows for b in cols)
        return [
            t ** root if _DP_SUM_FLOOR <= t < math.inf else distance(space, *pair)
            for t, pair in zip(totals, pairs)
        ]
    return [t ** root for t in totals]


def pl_distance(space: MetricSpace, f: PiecewisePoly, g: PiecewisePoly) -> Scalar:
    """L1 or sup distance between two piecewise polynomials.

    The two breakpoint grids are merged first.  The L1 value integrates the
    absolute difference in closed form, splitting each piece at its vertex
    and at sign-change roots; the sup value maximises the absolute difference
    over piece endpoints and interior vertices.
    """
    check_point(space, f)
    check_point(space, g)
    segments = _merged_diff(f, g)
    if space.p == 1:
        total = 0
        for u, v, coeffs in segments:
            total += _abs_quad_integral(coeffs, u, v, space.exact)
        return total
    best = 0
    for u, v, coeffs in segments:
        cand = _quad_sup_abs(coeffs, u, v, space.exact)
        if cand > best:
            best = cand
    return best


def _merged_diff(f: PiecewisePoly, g: PiecewisePoly):
    """Intervals of the merged grid with the coefficients of f - g on each."""
    merged = sorted(set(f.breakpoints) | set(g.breakpoints))
    out = []
    for u, v in zip(merged, merged[1:]):
        mid = (u + v) / 2
        fi = min(bisect_right(f.breakpoints, mid) - 1, len(f.pieces) - 1)
        gi = min(bisect_right(g.breakpoints, mid) - 1, len(g.pieces) - 1)
        fc, gc = f.pieces[fi], g.pieces[gi]
        out.append((u, v, (fc[0] - gc[0], fc[1] - gc[1], fc[2] - gc[2])))
    return out


def _quad_antiderivative(coeffs, x, exact: bool):
    # int/int true division would leak floats into the exact path
    half = Fraction(1, 2) if exact else 0.5
    third = Fraction(1, 3) if exact else (1.0 / 3.0)
    c0, c1, c2 = coeffs
    return c0 * x + c1 * x * x * half + c2 * x * x * x * third


def _quad_value(coeffs, x):
    c0, c1, c2 = coeffs
    return c0 + c1 * x + c2 * x * x


def _sign_change_root(coeffs, lo, hi, exact: bool):
    """Root of the quadratic inside [lo, hi], assuming exactly one crossing."""
    c0, c1, c2 = coeffs
    if c2 == 0:
        if exact:
            return Fraction(-c0) / c1
        return -c0 / c1
    disc = c1 * c1 - 4 * c2 * c0
    if exact:
        root = rational_sqrt(Fraction(disc))
        if root is None:
            raise ExactArithmeticUnsupported(
                "sign change at an irrational point; use float arithmetic"
            )
        sq = root
    else:
        sq = math.sqrt(max(float(disc), 0.0))
    for r in ((-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)):
        if lo <= r <= hi:
            return r
    raise InternalInconsistency(
        "sign change detected but no root inside the interval"
    )  # pragma: no cover - crossing guaranteed by caller


def _vertex(c1, c2, exact: bool):
    if exact:
        return Fraction(-c1) / (2 * c2)
    return -c1 / (2 * c2)


def _abs_quad_integral(coeffs, u, v, exact: bool):
    """Integral of |c0 + c1 x + c2 x^2| over [u, v], exact when possible."""
    c0, c1, c2 = coeffs
    # split at the vertex so each part is monotone
    cuts = [u, v]
    if c2 != 0:
        xv = _vertex(c1, c2, exact)
        if u < xv < v:
            cuts = [u, xv, v]
    total = 0
    for a, b in zip(cuts, cuts[1:]):
        qa, qb = _quad_value(coeffs, a), _quad_value(coeffs, b)
        piece = _quad_antiderivative(coeffs, b, exact) - _quad_antiderivative(
            coeffs, a, exact
        )
        if (qa < 0 < qb) or (qb < 0 < qa):
            r = _sign_change_root(coeffs, a, b, exact)
            left = _quad_antiderivative(coeffs, r, exact) - _quad_antiderivative(
                coeffs, a, exact
            )
            right = piece - left
            total += abs(left) + abs(right)
        else:
            total += abs(piece)
    return total


def _quad_sup_abs(coeffs, u, v, exact: bool):
    c0, c1, c2 = coeffs
    candidates = [abs(_quad_value(coeffs, u)), abs(_quad_value(coeffs, v))]
    if c2 != 0:
        xv = _vertex(c1, c2, exact)
        if u < xv < v:
            candidates.append(abs(_quad_value(coeffs, xv)))
    return max(candidates)
