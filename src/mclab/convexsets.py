"""Midpoint sets, metric segments, set representations, and diameters.

The midpoint set of x and y at parameter t is the intersection of two closed
balls whose radii sum to d(x, y); it equals the corresponding sphere
intersection.  Its shape depends on the metric, and each shape has a closed
form: a single point for the strictly convex d_p (1 < p < inf), an
axis-aligned box for d_inf, and a capped simplex for d_1 (the points of the
coordinate box of x and y whose offsets from x sum to the first radius),
sampled at its vertices.  The single point is the chord point
x + s(y - x), with s the share radii_for(conv, t, 1)[0] of d(x, y): it is
built from t alone, its share by one helper, for `midpoint_set`,
`unique_midpoint` and `chord_points`, so none of them measures a
distance.  A lifted union is kept as the union of its parts.
A closed ball of any metric is a `MetricBall`: the fixed-point solvers use
it as a domain and the nested-family solver as a constraint, and its
constructor is where a center and radius are validated.

On an exact space the parameter t, and so the radii, must be rational, and
a midpoint set holds only rationals.  A d_inf box is built in one frame, in
both arithmetic modes: on an exact space x, y and the radii are integers
over twice their common denominator, where every axis midpoint
(lo + hi) // 2 is exact, and one Fraction is made per bound at the end; on
a float space they are the floats themselves.  A construction takes no
tolerance: it guards its own rounding relative to the scale of its inputs.

Every member of a midpoint set lies on both bounding spheres, and one
check tests it: `sphere_equivalence_check` runs it for the library and the
Menger checker, and `segment` on every midpoint set it stores.  It
measures d(x, y) once, since the check reads the radii and d (a segment
once for all its parameters, chord points included), refuses a float d
that is not finite, and branches once on the space.  A d_inf box is
read in its frame from per-axis extremes
instead of a scan of its 3^n sample grid: over the grid, d_inf(z, x) runs
from the largest per-axis minimum of |z_i - x_i| to the largest per-axis
maximum, so the worst sphere gap sits at one of four numbers, and only a
box that fails is built, and scanned for its first point.  An exact d_1
simplex lies on both spheres by its offset invariant: it is not scanned,
its vertices are not enumerated, and its verdict reports `samples` 0.  A
float d_1 simplex is checked in one walk over its vertices, each carried
as its two rows of per-axis distance terms, and is scanned only where the
walk cannot decide.  Every other set is scanned.  `segment` stores the set
its check built.  A lifted union under a strictly convex d_p is the
deduplicated `chord_points`.

Two parameter conventions are in use for the same object.  FROM_X places the
set at distance t*d(x, y) from x; FROM_Y places it at distance (1-t)*d(x, y)
from x.  They coincide at t = 1/2 and are reflections of each other in t.
Checkers default to FROM_Y, under which the midpoint map contracts with
factor t in its first argument; segment parametrisation uses FROM_X so that
t -> 0 approaches x.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .arith import Scalar, common_denominator, in_float_range, is_rational, scaled
from .errors import (
    EmptySetError,
    ExactArithmeticUnsupported,
    InternalInconsistency,
    MclabError,
)
from .spaces import (
    VECTOR,
    MetricSpace,
    check_point,
    distance,
    distance_table,
    vlerp,
)
from .verdicts import FAILS, HOLDS, PropertyVerdict, verdict

DEFAULT_TOL = 1e-9

# a float construction allows DEFAULT_TOL of its inputs' scale for rounding,
# the scale at least the least normal float, below which rounding is absolute
MIN_SCALE = 2.0**-1022

# a d_1 midpoint set has up to 2^m vertices for m differing coordinates
MAX_SIMPLEX_AXES = 10

# a d_inf midpoint box in dimension m has a sample grid of up to 3^m points
MAX_BOX_AXES = 8


class MidConvention(Enum):
    FROM_X = "fromx"
    FROM_Y = "fromy"


def radii_for(conv: MidConvention, t: Scalar, d: Scalar):
    """Ball radii (around x, around y) for the chosen convention."""
    if conv is MidConvention.FROM_X:
        return t * d, (1 - t) * d
    return (1 - t) * d, t * d


# --------------------------------------------------------------------------
# set representations


def _near(z, point, tol) -> bool:
    """Whether z has the dimension of `point` and lies within `tol` of it
    in every coordinate."""
    return len(z) == len(point) and all(abs(a - b) <= tol for a, b in zip(z, point))


@dataclass(frozen=True)
class Singleton:
    point: tuple

    def contains(self, z, tol: float = 0) -> bool:
        return _near(z, self.point, tol)

    def sample_points(self):
        return [self.point]

    def nearest(self, z):
        return self.point


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: a d_inf midpoint set, or a domain under any d_p."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise MclabError("box bounds must share a dimension")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise MclabError("box lower bound exceeds upper bound")

    def contains(self, z, tol: float = 0) -> bool:
        if len(z) != len(self.lower):
            return False
        return all(
            lo - tol <= c <= hi + tol for lo, c, hi in zip(self.lower, z, self.upper)
        )

    def sample_points(self):
        return list(itertools.product(*_grid_axes(zip(self.lower, self.upper))))

    def nearest(self, z):
        """Clamp z into the box: a nearest point in every d_p."""
        return tuple(
            min(max(c, lo), hi) for lo, c, hi in zip(self.lower, z, self.upper)
        )


def _grid_axes(bounds, integer=False):
    """The per-axis values of a box's sample grid from its bounds (lo, hi):
    the bound of a degenerate axis, else both bounds and their midpoint,
    taken with `//` on `integer` bounds over a doubled denominator, where it
    is exact."""
    return [
        (lo,) if lo == hi else (lo, (lo + hi) // 2 if integer else (lo + hi) / 2, hi)
        for lo, hi in bounds
    ]


@dataclass(frozen=True)
class FiniteSet:
    points: tuple

    def __post_init__(self):
        if not self.points:
            raise EmptySetError("finite set representation must be nonempty")

    def contains(self, z, tol: float = 0) -> bool:
        return any(_near(z, p, tol) for p in self.points)

    def sample_points(self):
        return list(self.points)


@dataclass(frozen=True)
class CappedSimplex:
    """B[x, r1] ∩ B[y, r2] under d_1, with r1 + r2 = d_1(x, y).

    By the triangle equality the members are exactly the points z of the
    coordinate box of x and y with sum |z_i - x_i| = r1: in the offsets
    u_i = |z_i - x_i| a simplex sum u_i = r1 capped by 0 <= u_i <= |y_i - x_i|.
    """

    x: tuple
    y: tuple
    r1: Scalar

    def nearest_with_distance(self, z):
        """(d_1(z, w), w) for a nearest member w in d_1: clamp z into the
        box, then walk the coordinates in order toward x (or y) until the
        offsets sum to r1.  Every unit walked changes that sum by exactly 1,
        so no member is nearer.  The distance is taken from the walk's own
        coordinates: rational inputs are walked as integers over one common
        denominator, and the distance is one Fraction of their differences;
        other inputs take the float sum of `distance`."""
        values = (*z, *self.x, *self.y, self.r1)
        if not all(map(is_rational, values)):
            w = _simplex_walk(z, self.x, self.y, self.r1)
            return sum([abs(u - v) for u, v in zip(z, w)]), tuple(w)
        den = common_denominator(values)
        (r1,) = scaled((self.r1,), den)
        zs = scaled(z, den)
        w = _simplex_walk(zs, scaled(self.x, den), scaled(self.y, den), r1)
        return (
            Fraction(sum([abs(u - v) for u, v in zip(zs, w)]), den),
            tuple(Fraction(c, den) for c in w),
        )

    def contains(self, z, tol: float = 0) -> bool:
        if not all(
            min(a, b) - tol <= c <= max(a, b) + tol
            for c, a, b in zip(z, self.x, self.y)
        ):
            return False
        return self.nearest_with_distance(z)[0] <= tol

    def _axes(self):
        """The differing coordinates, at most MAX_SIMPLEX_AXES of them."""
        axes = [i for i, (a, b) in enumerate(zip(self.x, self.y)) if a != b]
        if len(axes) > MAX_SIMPLEX_AXES:
            raise MclabError(
                f"a d_1 midpoint set with {len(axes)} differing coordinates has "
                f"too many vertices to enumerate (limit {MAX_SIMPLEX_AXES})"
            )
        return axes

    def sample_points(self):
        """The vertices: every offset at 0 or at its cap except at most one.
        d(., B) is convex for a convex B, so maxima over the set, such as
        its diameter, are attained here.

        The cap sets come from `_cap_sets`.  Inputs that are all Fractions
        are summed as integers over one common denominator.  Rational
        vertices are distinct, so only others are deduplicated: the offsets
        of a vertex give back its axes at their caps and its one axis
        inside, if any."""
        x, y, r1 = self.x, self.y, self.r1
        den = 0
        # r1 first: a float r1 skips the scan of the coordinates
        if isinstance(r1, Fraction) and all(isinstance(c, Fraction) for c in (*x, *y)):
            den = common_denominator((*x, *y, r1))
            xs, ys, (top,) = scaled(x, den), scaled(y, den), scaled((r1,), den)
        else:
            xs, ys, top = x, y, r1
        moves = [(j, abs(ys[j] - xs[j]), ys[j] > xs[j]) for j in self._axes()]

        def grow(z, j):
            z = z.copy()
            z[j] = y[j]
            return z

        points = []
        for full, total, z, _ in _cap_sets(moves, top, list(x), grow):
            left = top - total
            if not left:
                points.append(tuple(z))
                continue
            for j, cap, up in moves:
                if left < cap and j not in full:
                    c = xs[j] + left if up else xs[j] - left
                    z[j] = Fraction(c, den) if den else c
                    points.append(tuple(z))
                    z[j] = x[j]
        if is_rational(r1) and all(map(is_rational, (*x, *y))):
            return points
        return list(dict.fromkeys(points))


def _cap_sets(moves, top, row, grow) -> list:
    """The sets of axes at their caps, over the (axis, cap, direction) of
    each differing coordinate in `moves`, whose cap sum is at most `top`:
    (axes, cap sum, row, next position in `moves`), level by level in the
    order of `itertools.combinations`, each cap sum one addition on its
    prefix's.  `row` belongs to the empty set, and `grow(row, j)` gives the
    row of a set from its prefix's row and its last axis j.  A set whose
    caps exceed `top` is dropped with all its supersets: caps are at least
    0, and adding one never lowers a sum, in floats too."""
    sets = [((), 0, row, 0)] if not top < 0 else []
    # a list grows while it is iterated, so the sets come level by level
    for full, total, row, start in sets:
        for k in range(start, len(moves)):
            j, cap, _ = moves[k]
            t = total + cap
            if not top - t < 0:
                sets.append((full + (j,), t, grow(row, j), k + 1))
    return sets


def _simplex_walk(z, x, y, r1) -> list:
    """CappedSimplex.nearest on plain numbers: clamp z into the box of x and
    y, then move the coordinates in index order toward x (the clamped
    offsets exceed r1) or toward y until the offsets sum to r1.  The clamp
    is min(max(c, min(a, b)), max(a, b)) with the comparisons of `min` and
    `max` written out, so it keeps the objects they return (0.0 or -0.0)."""
    w = []
    for c, a, b in zip(z, x, y):
        lo = b if b < a else a
        hi = b if b > a else a
        c = lo if lo > c else c
        w.append(hi if hi < c else c)
    excess = sum([abs(c - a) for c, a in zip(w, x)]) - r1
    goals, left = (x, excess) if excess > 0 else (y, -excess)
    for i, goal in enumerate(goals):
        if not left:
            break
        gap = abs(goal - w[i])
        if gap <= left:
            w[i] = goal
            left -= gap
        else:
            w[i] += left if goal > w[i] else -left
            left = 0
    return w


@dataclass(frozen=True)
class SetUnion:
    """Finite union of set representations, kept as its parts."""

    parts: tuple

    def contains(self, z, tol: float = 0) -> bool:
        return any(p.contains(z, tol) for p in self.parts)

    def sample_points(self):
        return list(
            dict.fromkeys(tuple(q) for p in self.parts for q in p.sample_points())
        )


@dataclass(frozen=True)
class MetricBall:
    """Closed ball B[center, radius] in the metric of `space`; every d_p ball
    lies in the coordinate box [lower, upper] of its d_inf ball."""

    space: MetricSpace
    center: tuple
    radius: Scalar

    def __post_init__(self):
        check_point(self.space, self.center)
        if not self.radius >= 0:
            raise MclabError(f"ball radius must be at least 0, not {self.radius!r}")
        if self.space.exact and not is_rational(self.radius):
            raise ExactArithmeticUnsupported(
                f"exact space requires a rational radius, not {self.radius!r}"
            )
        if self.space.carrier == VECTOR and not self.space.exact:
            for value in (*self.center, self.radius):
                in_float_range(value, "a ball's center or radius")

    def contains(self, z, tol: float = 0) -> bool:
        return distance(self.space, z, self.center) <= self.radius + tol

    @property
    def lower(self):
        return tuple(c - self.radius for c in self.center)

    @property
    def upper(self):
        return tuple(c + self.radius for c in self.center)

    def project(self, z, d):
        """z if it lies in the ball, else one Euclidean projection step from
        z, for d = d(z, center) as the caller measured it.

        Under d_2 the step is radial, to distance `radius` on the segment
        from the center to z; under d_inf it clamps z into the box [lower,
        upper]; under d_1 it is the sort-and-threshold projection onto the
        l1 ball (Duchi et al., ICML 2008).  Each is the nearest point of the
        ball in the Euclidean norm, and lands in it.  For any other p the
        step goes to the nearest point of the half-space
        {w : <g, w - center> <= radius}, with g the gradient of d(., center)
        at z, which supports the ball where the segment from the center to
        z crosses its sphere: the half-space contains the ball, but the step
        lands on its boundary plane, not in the ball.  With u = z - center,
        g_i = sign(u_i) (|u_i| / d)^(p - 1), the ratio taken first so that
        it lies in [0, 1] and cannot overflow, and the step is
        z - ((d - radius) / sum(g_i^2)) g; at p = 2 it is the radial step."""
        r = self.radius
        if d <= r:
            return z
        c, p = self.center, self.space.p
        if p == 2:
            return vlerp(c, z, r / d)
        if p == math.inf:
            return tuple([min(max(a, b - r), b + r) for a, b in zip(z, c)])
        u = [a - b for a, b in zip(z, c)]
        if p == 1:
            return tuple([b + v for b, v in zip(c, _l1_shrink(u, r))])
        g = [math.copysign((abs(v) / d) ** (p - 1), v) for v in u]
        step = (d - r) / sum([v * v for v in g])
        return tuple([a - step * v for a, v in zip(z, g)])


def _l1_shrink(u, r):
    """The nearest point to u, in the Euclidean norm, of the l1 ball of
    radius r around 0, for sum |u_i| > r: every |u_i| shrunk by one
    threshold theta and clipped at 0, theta taken from the largest
    magnitudes (Duchi et al., ICML 2008).  Exact on rationals."""
    mags = sorted([abs(v) for v in u], reverse=True)
    total = mags[0]
    theta = total - r
    for j, m in enumerate(mags[1:], 2):
        total += m
        if m * j <= total - r:
            break
        theta = (total - r) / j
    return [v - theta if v > theta else v + theta if v < -theta else 0 for v in u]


# not a set representation; kept only because perfbench/tracer.py wraps it at install
@dataclass(frozen=True, eq=False)
class SampledOracle:
    """Membership predicate over a bounding box, with certified seed members
    as its sample points."""

    member: Callable[[tuple], bool]
    lower: tuple
    upper: tuple
    seeds: tuple = ()

    def contains(self, z, tol: float = 0) -> bool:
        return self.member(tuple(z))

    def sample_points(self):
        return list(dict.fromkeys(tuple(s) for s in self.seeds))


SetRep = Singleton | Box | FiniteSet | CappedSimplex | SetUnion


@dataclass(frozen=True)
class Segment:
    """Sampled metric segment between two points.

    `samples` holds one set representation per parameter value t, each
    passed by the sphere check: every sampled member lies on the spheres
    around x and y whose radii split d(x, y) at t, and so satisfies the
    betweenness identity d(x,z) + d(z,y) = d(x,y).
    """

    x: tuple
    y: tuple
    samples: tuple  # of (t, SetRep)


# --------------------------------------------------------------------------
# midpoint sets


def midpoint_set(
    space: MetricSpace,
    x,
    y,
    t: Scalar,
    conv: MidConvention = MidConvention.FROM_Y,
) -> SetRep:
    """Intersection of the ball of one radius around x with the complementary
    ball around y, the radii splitting d(x, y) according to the convention;
    refused where d(x, y) is not finite.  Under a strictly convex d_p it is
    the chord point: no distance is measured, so none is refused, and a
    chord that overflows keeps its infinite coordinates."""
    _check_endpoints(space, x, y, (t,))
    d = None if space.unique_midpoints else _finite_distance(space, x, y)
    return _midpoint_rep(space, x, y, t, conv, d)


def _check_endpoints(space: MetricSpace, x, y, ts) -> None:
    """Refuse the midpoint sets of x and y at each t in `ts` unless the
    space has a vector carrier, both endpoints are its points, they are
    distinct, and every t is a valid parameter."""
    if space.carrier != VECTOR:
        raise MclabError("midpoint sets are implemented for vector carriers")
    check_point(space, x)
    check_point(space, y)
    if tuple(x) == tuple(y):
        raise MclabError("midpoint set needs two distinct endpoints")
    for t in ts:
        _check_parameter(space, t)


def _finite_distance(space: MetricSpace, x, y) -> Scalar:
    """d(x, y) for checked endpoints, refused where it is not finite: a
    float d that overflows to inf, or is NaN, splits into no radii and
    leaves no sphere to check.  An exact d is always finite, and is not
    compared."""
    d = distance(space, x, y)
    if not (space.exact or d < math.inf):
        raise MclabError(f"midpoint sets need a finite distance d(x, y), not {d}")
    return d


def _check_parameter(space: MetricSpace, t: Scalar) -> None:
    """Refuse a t outside (0, 1), and a t that is not rational on an exact
    space: there the radii, and every value built from them, are exact."""
    if not (0 < t < 1):
        raise MclabError("parameter t must lie strictly between 0 and 1")
    if space.exact and not is_rational(t):
        raise ExactArithmeticUnsupported(
            f"exact space requires a rational parameter t, not {t!r}"
        )


def _midpoint_rep(space: MetricSpace, x, y, t, conv, d) -> SetRep:
    """B[x, r1] ∩ B[y, r2] for (r1, r2) = radii_for(conv, t, d) and
    d = d(x, y), with rational radii on an exact space.  A strictly convex
    d_p reads no d: its set is the chord point."""
    p = space.p
    if p == math.inf:
        den, bounds, _ = _sup_frame(space, x, y, *radii_for(conv, t, d))
        if den is not None:
            bounds = [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in bounds]
        lower, upper = zip(*bounds)
        return Box(lower, upper)
    if p == 1:
        return CappedSimplex(tuple(x), tuple(y), radii_for(conv, t, d)[0])
    return Singleton(vlerp(x, y, _chord_share(t, conv)))


def _chord_share(t: Scalar, conv: MidConvention) -> Scalar:
    """The share of d(x, y) that the first radius takes, radii_for(conv, t,
    1)[0], written out as t or exactly 1 - t: the one member of a strictly
    convex midpoint set is `vlerp(x, y, share)`, the point at that share of
    the straight chord from x to y, so no distance is read.  Every route to
    a unique midpoint takes its share from here."""
    return t if conv is MidConvention.FROM_X else 1 - t


def _sup_frame(space: MetricSpace, x, y, r1, r2):
    """B[x, r1] ∩ B[y, r2] under d_inf for r1 + r2 = d(x, y), as (den, the
    per-axis bounds (lo, hi), the spheres ((x, r1), (y, r2))).  Each bound
    is max(x_i - r1, y_i - r2) or min(x_i + r1, y_i + r2).  On an exact
    space all are integers over twice their common denominator `den`,
    where every axis midpoint (lo + hi) // 2 is exact; on a float space
    they are the values themselves, and `den` is None."""
    den = None
    if space.exact:
        den = 2 * common_denominator((*x, *y, r1, r2))
        x, y = scaled(x, den), scaled(y, den)
        r1, r2 = scaled((r1, r2), den)
    bounds = []
    for a, b in zip(x, y):
        lo, hi = max(a - r1, b - r2), min(a + r1, b + r2)
        if lo > hi:
            # r1 + r2 can round below d, emptying a tight float axis by a few ulps
            scale = max(abs(a) + abs(b) + r1 + r2, MIN_SCALE)
            if den is not None or lo - hi > DEFAULT_TOL * scale:
                raise InternalInconsistency(
                    "empty box intersection for a sup-metric midpoint set"
                )
            lo = hi = (lo + hi) / 2
        bounds.append((lo, hi))
    return den, bounds, ((x, r1), (y, r2))


def unique_midpoint(space: MetricSpace, x, y, t: Scalar):
    """The point at distance (1-t)*d(x, y) from x and t*d(x, y) from y.

    Defined only on the strictly convex vector metrics d_p, 1 < p < inf,
    where the two-ball intersection is a single point; on d_1, d_inf and the
    function-space metrics the intersection can contain distinct points, so
    the request is refused rather than silently resolved.  No distance is
    measured, so none is refused: a chord that overflows keeps its
    infinite coordinates.
    """
    space.require_unique_midpoints()
    _check_endpoints(space, x, y, (t,))
    return vlerp(x, y, _chord_share(t, MidConvention.FROM_Y))


# --------------------------------------------------------------------------
# sphere equivalence


def _spheres_verdict(space, x, y, t, conv, rep, r1, r2, tol):
    """Whether every sampled member of `rep` lies on the spheres around x
    and y of radii r1 and r2, by a scan of its sample points, their
    distances to x and to y taken in one two-row `distance_table`.

    Members of the two-ball intersection are forced onto the spheres by the
    triangle inequality; a sampled point strictly inside one ball certifies
    that `rep` is not that intersection."""
    points = rep.sample_points()
    if not points:
        return verdict(
            "SphereEquivalence",
            FAILS,
            conv=conv,
            witness={"x": x, "y": y, "t": t, "reason": "no sampled members"},
        )
    limit = space.limit(tol)
    max_slack = 0
    # one table gives `distance` point by point, with every point checked once
    to_x, to_y = distance_table(space, (x, y), points)
    for z, dx, dy in zip(points, to_x, to_y):
        gap = max(abs(dx - r1), abs(dy - r2))
        if gap > limit:
            return verdict(
                "SphereEquivalence",
                FAILS,
                conv=conv,
                samples=len(points),
                witness={
                    "x": x,
                    "y": y,
                    "t": t,
                    "point": z,
                    "distance_to_x": dx,
                    "distance_to_y": dy,
                    "radius_x": r1,
                    "radius_y": r2,
                },
                max_slack=gap,
            )
        if gap > max_slack:
            max_slack = gap
    return verdict(
        "SphereEquivalence",
        HOLDS,
        conv=conv,
        samples=len(points),
        max_slack=max_slack,
    )


def _sphere_gap(axes, spheres):
    """The largest |d_inf(z, c) - r| over the points z of the product of
    the per-axis value lists `axes` and the spheres (c, r).  d_inf(z, c)
    runs from the largest per-axis least |v - c_i| to the largest per-axis
    greatest one, and each |v - c_i| is the difference that `distance`
    takes, so both ends are bit-exact."""
    gaps = []
    for c, r in spheres:
        spans = [[abs(v - ci) for v in values] for values, ci in zip(axes, c)]
        gaps += (abs(max(map(min, spans)) - r), abs(max(map(max, spans)) - r))
    return max(gaps)


def _simplex_gap(rep: CappedSimplex, r1, r2, limit):
    """(vertex count, largest sphere gap) of a float d_1 simplex `rep` on
    the spheres around its x and y of radii r1 and r2, as `_spheres_verdict`
    reports them, or None where the scan must decide: no vertex, a gap above
    `limit`, or an inside coordinate that rounds onto x_j or y_j, where its
    vertex may repeat another.  The vertices come in the order of
    `sample_points`, each as its rows of terms |x_i - z_i| and |y_i - z_i|,
    the differences `distance_table` takes, so each distance is the table's
    own index-order sum, in value and type."""
    x, y, top = rep.x, rep.y, rep.r1
    moves = [(j, abs(y[j] - x[j]), y[j] > x[j]) for j in rep._axes()]
    at_cap = [(abs(a - b), abs(b - b)) for a, b in zip(x, y)]

    def grow(rows, j):
        to_x, to_y = rows[0].copy(), rows[1].copy()
        to_x[j], to_y[j] = at_cap[j]
        return to_x, to_y

    rows = [abs(a - a) for a in x], [abs(b - a) for a, b in zip(x, y)]
    gaps = []
    for full, total, (to_x, to_y), _ in _cap_sets(moves, top, rows, grow):
        left = top - total
        if not left:
            gaps.append(max(abs(sum(to_x) - r1), abs(sum(to_y) - r2)))
            continue
        for j, cap, up in moves:
            if left < cap and j not in full:
                a, b = x[j], y[j]
                c = a + left if up else a - left
                if c == a or c == b:
                    return None
                kept = to_x[j], to_y[j]
                to_x[j], to_y[j] = abs(a - c), abs(b - c)
                gaps.append(max(abs(sum(to_x) - r1), abs(sum(to_y) - r2)))
                to_x[j], to_y[j] = kept
    # the scan's running maximum from an int 0, which a NaN gap never enters
    worst = max([0, *gaps])
    return (len(gaps), worst) if gaps and not worst > limit else None


def sphere_equivalence_check(
    space: MetricSpace,
    x,
    y,
    t: Scalar,
    conv: MidConvention = MidConvention.FROM_Y,
    tol: float = DEFAULT_TOL,
) -> PropertyVerdict:
    """Whether every sampled member of `midpoint_set` lies on both bounding
    spheres: t is checked as `midpoint_set` checks it, and d(x, y) is
    measured once and refused where it is not finite.  A d_inf box is read
    in the frame of `_sup_frame`: over its sample grid, |d_inf(z, c) - r|
    is largest at an end of the per-axis range of d_inf(z, c) (also in
    float, where rounding is monotone), and an exact gap is an integer,
    compared with 0 before any Fraction is made.  An exact d_1 simplex
    holds by its offset invariant: every vertex has offsets in [0, cap_i]
    summing to r1, so it lies on both spheres, and no vertex is enumerated
    or counted.  A float d_1 simplex is built and walked by `_simplex_gap`,
    which reports the scan's vertex count and largest gap without listing a
    point or a distance table.  Any other set and a box that fails are
    built and scanned by `_spheres_verdict`, as is a simplex the walk hands
    back; the scan names its first off-sphere point.  The Menger checker
    runs each of its trials through here."""
    _check_endpoints(space, x, y, (t,))
    # the check reads r1, r2 and d, so d is measured even for a chord point
    return _sphere_check(space, x, y, t, conv, _finite_distance(space, x, y), tol)[0]


def _sphere_check(space, x, y, t, conv, d, tol):
    """`sphere_equivalence_check` for checked endpoints and t and for
    d = d(x, y), as `segment` runs it once per parameter: (the verdict, the
    midpoint set it built, or None where it built none)."""
    r1, r2 = radii_for(conv, t, d)
    rep = held = None  # held: (samples, max_slack) of a check that holds
    if space.p == math.inf:
        den, bounds, spheres = _sup_frame(space, x, y, r1, r2)
        axes = _grid_axes(bounds, den is not None)
        gap = _sphere_gap(axes, spheres)
        if gap <= space.limit(tol):
            held = math.prod(len(values) for values in axes), gap if gap > 0 else 0
    elif space.exact and space.p == 1:
        held = 0, 0
    else:
        rep = _midpoint_rep(space, x, y, t, conv, d)
        if space.p == 1:
            held = _simplex_gap(rep, r1, r2, space.limit(tol))
    if held is None:
        if rep is None:
            rep = _midpoint_rep(space, x, y, t, conv, d)
        return _spheres_verdict(space, x, y, t, conv, rep, r1, r2, tol), rep
    samples, max_slack = held
    return verdict(
        "SphereEquivalence", HOLDS, conv=conv, samples=samples, max_slack=max_slack
    ), rep


# --------------------------------------------------------------------------
# segments


def segment(
    space: MetricSpace,
    x,
    y,
    t_grid,
    conv: MidConvention = MidConvention.FROM_X,
) -> Segment:
    """Sampled segment: one midpoint set per parameter in `t_grid`, each
    refused as `midpoint_set` refuses it, built from one d(x, y), refused
    where it is not finite, and checked by the sphere check, exact or
    relative to the segment's scale."""
    t_grid = tuple(t_grid)
    _check_endpoints(space, x, y, t_grid)
    # the sphere check reads d, so d is measured even for chord points
    d = _finite_distance(space, x, y)
    tol = 0 if space.exact else DEFAULT_TOL * max(*map(abs, (*x, *y)), d, MIN_SCALE)
    samples = []
    for t in t_grid:
        check, rep = _sphere_check(space, x, y, t, conv, d, tol)
        if not check.holds:
            raise InternalInconsistency(
                f"segment sample at t={t} misses its spheres by {check.max_slack}"
            )
        if rep is None:
            rep = _midpoint_rep(space, x, y, t, conv, d)
        samples.append((t, rep))
    return Segment(tuple(x), tuple(y), tuple(samples))


def segment_points(seg: Segment):
    """Endpoints plus every sampled member, deduplicated, deterministic order."""
    points = [tuple(seg.x), tuple(seg.y)]
    for _, rep in seg.samples:
        points.extend(tuple(p) for p in rep.sample_points())
    return list(dict.fromkeys(points))


# --------------------------------------------------------------------------
# set-lifted unions


def chord_points(space: MetricSpace, points, y, t: Scalar, conv: MidConvention) -> list:
    """The unique midpoint of each point a of `points` with y at t, in
    order: y itself for a == y, which keeps y's bits (a -0.0 coordinate
    included), else `vlerp(a, y, share)`, as `midpoint_set` builds it, the
    share taken once per call.  No distance is measured."""
    space.require_unique_midpoints()
    _check_parameter(space, t)
    y, share = tuple(y), _chord_share(t, conv)
    return [y if a == y else vlerp(a, y, share) for a in map(tuple, points)]


def lifted_union(
    space: MetricSpace,
    A: SetRep,
    y,
    t: Scalar,
    conv: MidConvention = MidConvention.FROM_Y,
) -> SetRep:
    """Union of midpoint sets with y over representative points of A: y for
    a point equal to y, else its `midpoint_set`, on every space.  A union
    of singletons, as every union is under a strictly convex d_p, is the
    `FiniteSet` of their points, deduplicated in order."""
    if not isinstance(A, (Singleton, FiniteSet, Box)):
        raise MclabError("lifted unions need a finite or box representation")
    _check_parameter(space, t)
    parts = []
    for a in A.sample_points():
        if tuple(a) == tuple(y):
            parts.append(Singleton(tuple(y)))
        else:
            parts.append(midpoint_set(space, a, y, t, conv))
    if all(isinstance(p, Singleton) for p in parts):
        points = tuple(dict.fromkeys(tuple(p.point) for p in parts))
        return FiniteSet(points)
    return SetUnion(tuple(parts))


# --------------------------------------------------------------------------
# diameters


def diameter_with_witness(space: MetricSpace, rep: SetRep):
    """Diameter and a point pair achieving it, exact for the midpoint-set
    representations."""
    if isinstance(rep, Singleton):
        return 0, (rep.point, rep.point)
    if isinstance(rep, Box):
        # no two points of a box differ by more than hi - lo on an axis
        value = distance(space, rep.lower, rep.upper)
        return value, (rep.lower, rep.upper)
    points = rep.sample_points()
    if not points:
        raise EmptySetError("cannot measure an empty sample")
    best = 0
    pair = (points[0], points[0])
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            d = distance(space, a, b)
            if d > best:
                best = d
                pair = (a, b)
    return best, pair


# not called in src/; kept only because perfbench/tracer.py wraps it at install
def diameter(space: MetricSpace, rep: SetRep) -> Scalar:
    return diameter_with_witness(space, rep)[0]
