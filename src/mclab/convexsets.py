"""Midpoint sets, metric segments, set representations, and diameters.

The midpoint set of x and y at parameter t is the intersection of two closed
balls whose radii sum to d(x, y); it equals the corresponding sphere
intersection.  Its shape depends on the metric: a single point for the
strictly convex d_p (1 < p < inf), an axis-aligned box for d_inf, and a
cross-polytope intersection for d_1 that we represent by a membership oracle
seeded with explicitly constructed members.  The d_1 oracle enumerates its
grid only near the hyperplane sum |z_i - x_i| = r1 that holds every member;
the skipped grid points are ones its membership test rejects, so the sampled
points are the same as those of a full grid scan.

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
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .arith import Scalar
from .errors import (
    EmptySetError,
    InternalInconsistency,
    MclabError,
    UniqueMidpointUndefined,
)
from .spaces import (
    VECTOR,
    MetricSpace,
    check_point,
    distance,
    vlerp,
)
from .verdicts import FAILS, HOLDS, PropertyVerdict

DEFAULT_TOL = 1e-9
DEFAULT_RESOLUTION = 9
GRID_ENUM_LIMIT = 4096

# staircase seeds for d_1 oracles: identity and reversed orders first, then a
# deterministic slice of the remaining coordinate orders
_MAX_STAIRCASE_ORDERS = 12


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


@dataclass(frozen=True)
class Singleton:
    point: tuple
    exact: bool = True

    kind = "singleton"

    def contains(self, z, tol: float = DEFAULT_TOL) -> bool:
        if self.exact:
            return tuple(z) == tuple(self.point)
        return all(abs(a - b) <= tol for a, b in zip(z, self.point))

    def sample_points(self, **_):
        return [self.point]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; used only under the d_inf metric."""

    lower: tuple
    upper: tuple
    exact: bool = True

    kind = "box"

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise MclabError("box bounds must share a dimension")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise MclabError("box lower bound exceeds upper bound")

    def contains(self, z, tol: float = 0) -> bool:
        return all(
            lo - tol <= c <= hi + tol for lo, c, hi in zip(self.lower, z, self.upper)
        )

    def sample_points(self, per_axis: int = 3, **_):
        axes = []
        for lo, hi in zip(self.lower, self.upper):
            if lo == hi:
                axes.append([lo])
            elif per_axis <= 2:
                axes.append([lo, hi])
            else:
                mid = (lo + hi) / 2
                axes.append([lo, mid, hi])
        return [tuple(p) for p in itertools.product(*axes)]

    def corners(self):
        axes = [
            [lo] if lo == hi else [lo, hi] for lo, hi in zip(self.lower, self.upper)
        ]
        return [tuple(p) for p in itertools.product(*axes)]


@dataclass(frozen=True)
class FiniteSet:
    points: tuple
    exact: bool = True

    kind = "finite"

    def __post_init__(self):
        if not self.points:
            raise EmptySetError("finite set representation must be nonempty")

    def contains(self, z, tol: float = DEFAULT_TOL) -> bool:
        if self.exact:
            return tuple(z) in {tuple(p) for p in self.points}
        return any(all(abs(a - b) <= tol for a, b in zip(z, p)) for p in self.points)

    def sample_points(self, **_):
        return list(self.points)


@dataclass(frozen=True, eq=False)
class SampledOracle:
    """Membership predicate plus a deterministic sample plan.

    `seeds` are certified members constructed analytically; the grid over the
    bounding box is enumerated only when it stays below GRID_ENUM_LIMIT
    points, and the resolution is recorded either way so downstream values
    can report their error bars.

    `window`, when given, maps the coordinates of a grid point on every axis
    but the last to float bounds (lo, hi), and only last-axis grid values v
    with lo <= float(v) <= hi are tested.  Invariant: the window skips only
    points that `member` rejects, so the sampled points and their order are
    those of testing the whole grid with `member`.
    """

    member: Callable[[tuple], bool]
    lower: tuple
    upper: tuple
    resolution: int
    seeds: tuple = ()
    exact: bool = False
    window: Callable[[tuple], tuple] | None = None

    kind = "oracle"

    def __post_init__(self):
        if self.resolution < 8:
            raise MclabError("oracle grid resolution must be at least 8 per axis")

    def contains(self, z, tol: float = 0) -> bool:
        return self.member(tuple(z))

    def _axes(self):
        axes = []
        for lo, hi in zip(self.lower, self.upper):
            if lo == hi:
                axes.append([lo])
            else:
                step = (hi - lo) / (self.resolution - 1)
                axes.append([lo + i * step for i in range(self.resolution)])
        return axes

    def grid_points(self):
        return (tuple(p) for p in itertools.product(*self._axes()))

    def sample_points(self, grid_limit: int = GRID_ENUM_LIMIT, **_):
        points = list(dict.fromkeys(tuple(s) for s in self.seeds))
        sizes = (1 if lo == hi else self.resolution
                 for lo, hi in zip(self.lower, self.upper))
        if math.prod(sizes) > grid_limit:
            return points
        known = set(points)
        *axes, last = self._axes()
        last_f = [float(v) for v in last]
        # itertools.product order: the last axis varies fastest
        for prefix in itertools.product(*axes):
            if self.window is None:
                candidates = last
            else:
                lo, hi = self.window(prefix)
                candidates = [v for v, f in zip(last, last_f) if lo <= f <= hi]
            for v in candidates:
                g = prefix + (v,)
                if g not in known and self.member(g):
                    points.append(g)
                    known.add(g)
        return points

    @property
    def grid_spacing(self):
        widths = [hi - lo for lo, hi in zip(self.lower, self.upper)]
        return max(widths) / (self.resolution - 1) if widths else 0


SetRep = Singleton | Box | FiniteSet | SampledOracle


@dataclass(frozen=True)
class Segment:
    """Sampled metric segment between two points.

    `samples` holds one set representation per parameter value; every sampled
    member satisfies the betweenness identity d(x,z) + d(z,y) = d(x,y) up to
    `max_defect`.
    """

    x: tuple
    y: tuple
    samples: tuple  # of (t, SetRep)
    max_defect: Scalar = 0


# --------------------------------------------------------------------------
# midpoint sets


def midpoint_set(
    space: MetricSpace,
    x,
    y,
    t: Scalar,
    conv: MidConvention = MidConvention.FROM_Y,
    resolution: int = DEFAULT_RESOLUTION,
    tol: float = DEFAULT_TOL,
) -> SetRep:
    """Intersection of the ball of one radius around x with the complementary
    ball around y, the radii splitting d(x, y) according to the convention."""
    if space.carrier != VECTOR:
        raise MclabError("midpoint sets are implemented for vector carriers")
    check_point(space, x)
    check_point(space, y)
    if tuple(x) == tuple(y):
        raise MclabError("midpoint set needs two distinct endpoints")
    if not (0 < t < 1):
        raise MclabError("parameter t must lie strictly between 0 and 1")
    d = distance(space, x, y)
    r1, r2 = radii_for(conv, t, d)
    p = space.p
    if p == math.inf:
        lower, upper = [], []
        for xi, yi in zip(x, y):
            lo = max(xi - r1, yi - r2)
            hi = min(xi + r1, yi + r2)
            if lo > hi:
                # r1 + r2 can round to slightly below d in float mode,
                # collapsing the tight coordinate by a few ulps
                if space.exact or lo - hi > tol:
                    raise InternalInconsistency(
                        "empty box intersection for a sup-metric midpoint set"
                    )
                lo = hi = (lo + hi) / 2
            lower.append(lo)
            upper.append(hi)
        return Box(tuple(lower), tuple(upper), exact=space.exact)
    if p == 1:
        return _taxicab_midpoint_oracle(space, x, y, r1, r2, resolution, tol)
    # strictly convex case: the intersection is the single point on the
    # straight chord at distance r1 from x
    w = r1 / d
    return Singleton(vlerp(x, y, w), exact=space.exact)


def _staircase_point(x, y, r1, order):
    """Member of the d_1 sphere intersection: walk coordinates toward y in
    the given order, spending a total coordinate budget of r1."""
    z = list(x)
    left = r1
    for i in order:
        if left == 0:
            break
        gap = y[i] - z[i]
        if gap == 0:
            continue
        mag = -gap if gap < 0 else gap
        step = mag if mag <= left else left
        z[i] = z[i] + (step if gap > 0 else -step)
        left = left - step
    return tuple(z)


def _staircase_orders(n: int):
    orders = [tuple(range(n)), tuple(reversed(range(n)))]
    for perm in itertools.islice(itertools.permutations(range(n)), _MAX_STAIRCASE_ORDERS):
        if perm not in orders:
            orders.append(perm)
    return orders


def _taxicab_midpoint_oracle(space, x, y, r1, r2, resolution, tol):
    """Oracle for B[x, r1] ∩ B[y, r2] under d_1 with r1 + r2 = d(x, y).

    By the triangle equality every member z lies in the coordinate box of x
    and y and has sum |z_i - x_i| = r1, so on a grid row the members sit in
    one interval of the last coordinate.  The membership test stays the
    two-distance predicate; the box pre-check and the row window only skip
    points it rejects.  The window is computed in floats in both modes and
    widened by `slack`, a bound on `tol` plus the rounding of every sum and
    conversion involved; the float-mode box is widened by the same bound.
    """
    sx, sy = tuple(x), tuple(y)
    n = len(sx)
    mtol = 0 if space.exact else tol
    xf, yf = [float(c) for c in sx], [float(c) for c in sy]
    r1f, r2f = float(r1), float(r2)
    # every value the window and the distance sums produce is below 2 * scale
    # in magnitude and passes through at most 4n + 8 roundings
    scale = sum(map(abs, xf + yf)) + n * (r1f + r2f) + mtol
    slack = mtol + 8 * (n + 2) * sys.float_info.epsilon * scale
    if space.exact:
        box = [(min(a, b), max(a, b)) for a, b in zip(sx, sy)]
    else:
        box = [(min(a, b) - slack, max(a, b) + slack) for a, b in zip(sx, sy)]

    def member(z):
        return (
            all(lo <= c <= hi for (lo, hi), c in zip(box, z))
            and distance(space, z, sx) <= r1 + mtol
            and distance(space, z, sy) <= r2 + mtol
        )

    budget_x, budget_y = r1f + slack, r2f + slack
    *x_head, x_last = xf
    *y_head, y_last = yf

    def window(prefix):
        # a member's last coordinate is within the budget its prefix leaves
        # towards x and towards y; a negative budget empties the row
        a = budget_x
        b = budget_y
        for c, xi, yi in zip(prefix, x_head, y_head):
            c = float(c)
            a -= abs(c - xi)
            b -= abs(c - yi)
        return max(x_last - a, y_last - b), min(x_last + a, y_last + b)

    lower = tuple(max(xi - r1, yi - r2) for xi, yi in zip(x, y))
    upper = tuple(min(xi + r1, yi + r2) for xi, yi in zip(x, y))
    seeds = []
    seen = set()
    for order in _staircase_orders(len(x)):
        pt = _staircase_point(x, y, r1, order)
        if pt not in seen:
            seen.add(pt)
            seeds.append(pt)
    return SampledOracle(
        member=member,
        lower=lower,
        upper=upper,
        resolution=resolution,
        seeds=tuple(seeds),
        exact=space.exact,
        window=window,
    )


def unique_midpoint(space: MetricSpace, x, y, t: Scalar):
    """The point at distance (1-t)*d(x, y) from x and t*d(x, y) from y.

    Defined only on the strictly convex vector metrics d_p, 1 < p < inf,
    where the two-ball intersection is a single point; on d_1, d_inf and the
    function-space metrics the intersection can contain distinct points, so
    the request is refused rather than silently resolved.
    """
    if not space.unique_midpoints:
        raise UniqueMidpointUndefined(
            f"midpoint sets of {space_label(space)} are not singletons; "
            "no unique midpoint exists"
        )
    check_point(space, x)
    check_point(space, y)
    if tuple(x) == tuple(y):
        raise MclabError("unique midpoint needs two distinct endpoints")
    if not (0 < t < 1):
        raise MclabError("parameter t must lie strictly between 0 and 1")
    return vlerp(x, y, 1 - t)


def space_label(space: MetricSpace) -> str:
    if space.carrier == VECTOR:
        ptag = "inf" if space.p == math.inf else f"{space.p:g}"
        return f"(R^{space.dim}, d_{ptag})"
    return "the function space"


# --------------------------------------------------------------------------
# sphere equivalence


def verify_on_spheres(
    space: MetricSpace,
    x,
    y,
    t: Scalar,
    conv: MidConvention,
    rep: SetRep,
    tol: float = DEFAULT_TOL,
) -> PropertyVerdict:
    """Check that every sampled member of `rep` lies on both bounding spheres.

    Members of the two-ball intersection are forced onto the spheres by the
    triangle inequality; a sampled point strictly inside one ball certifies
    that `rep` is not the advertised intersection.
    """
    d = distance(space, x, y)
    r1, r2 = radii_for(conv, t, d)
    slack_tol = 0 if space.exact else tol
    points = rep.sample_points()
    if not points:
        return PropertyVerdict(
            property="SphereEquivalence",
            outcome=FAILS,
            samples=0,
            witness={"x": x, "y": y, "t": t, "reason": "no sampled members"},
            convention=conv.value,
        )
    max_slack = 0
    for z in points:
        dx = distance(space, z, x)
        dy = distance(space, z, y)
        gap = max(abs(dx - r1), abs(dy - r2))
        if gap > slack_tol:
            return PropertyVerdict(
                property="SphereEquivalence",
                outcome=FAILS,
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
                convention=conv.value,
            )
        if gap > max_slack:
            max_slack = gap
    return PropertyVerdict(
        property="SphereEquivalence",
        outcome=HOLDS,
        samples=len(points),
        max_slack=max_slack,
        convention=conv.value,
    )


def sphere_equivalence_check(
    space: MetricSpace,
    x,
    y,
    t: Scalar,
    conv: MidConvention = MidConvention.FROM_Y,
    resolution: int = DEFAULT_RESOLUTION,
    tol: float = DEFAULT_TOL,
) -> PropertyVerdict:
    rep = midpoint_set(space, x, y, t, conv, resolution=resolution, tol=tol)
    return verify_on_spheres(space, x, y, t, conv, rep, tol=tol)


# --------------------------------------------------------------------------
# segments


def segment(
    space: MetricSpace,
    x,
    y,
    t_grid,
    conv: MidConvention = MidConvention.FROM_X,
    resolution: int = DEFAULT_RESOLUTION,
    tol: float = DEFAULT_TOL,
) -> Segment:
    """Sampled segment: one midpoint set per parameter in `t_grid`."""
    if tuple(x) == tuple(y):
        raise MclabError("segment needs two distinct endpoints")
    d = distance(space, x, y)
    samples = []
    max_defect = 0
    for t in t_grid:
        rep = midpoint_set(space, x, y, t, conv, resolution=resolution, tol=tol)
        for z in rep.sample_points():
            defect = abs(distance(space, x, z) + distance(space, z, y) - d)
            if defect > max_defect:
                max_defect = defect
        samples.append((t, rep))
    limit = 0 if space.exact else tol
    if max_defect > limit:
        raise InternalInconsistency(
            f"segment sample misses the betweenness identity by {max_defect}"
        )
    return Segment(tuple(x), tuple(y), tuple(samples), max_defect)


def segment_points(seg: Segment):
    """Endpoints plus every sampled member, deduplicated, deterministic order."""
    points = [tuple(seg.x), tuple(seg.y)]
    for _, rep in seg.samples:
        points.extend(tuple(p) for p in rep.sample_points())
    return list(dict.fromkeys(points))


def segment_finite_set(seg: Segment, exact: bool) -> FiniteSet:
    return FiniteSet(tuple(segment_points(seg)), exact=exact)


# --------------------------------------------------------------------------
# set-lifted unions


def lifted_union(
    space: MetricSpace,
    A: SetRep,
    y,
    t: Scalar,
    conv: MidConvention = MidConvention.FROM_Y,
    resolution: int = DEFAULT_RESOLUTION,
    tol: float = DEFAULT_TOL,
) -> SetRep:
    """Union of midpoint sets with y over representative points of A."""
    if isinstance(A, (Singleton, FiniteSet)):
        reps_points = A.sample_points()
    elif isinstance(A, Box):
        reps_points = A.sample_points(per_axis=3)
    else:
        raise MclabError("lifted unions need a finite or box representation")
    if not reps_points:
        raise EmptySetError("cannot lift an empty set")
    parts = []
    for a in reps_points:
        if tuple(a) == tuple(y):
            parts.append(Singleton(tuple(y), exact=space.exact))
        else:
            parts.append(
                midpoint_set(space, a, y, t, conv, resolution=resolution, tol=tol)
            )
    if all(isinstance(p, Singleton) for p in parts):
        points = tuple(dict.fromkeys(tuple(p.point) for p in parts))
        return FiniteSet(points, exact=space.exact)

    def member(z):
        return any(p.contains(z, tol) for p in parts)

    lowers = []
    uppers = []
    seeds = []
    for p in parts:
        pts = p.sample_points()
        seeds.extend(tuple(q) for q in pts)
        if isinstance(p, Box) or isinstance(p, SampledOracle):
            lowers.append(p.lower)
            uppers.append(p.upper)
        else:
            lowers.append(pts[0])
            uppers.append(pts[0])
    lower = tuple(min(lo[i] for lo in lowers) for i in range(len(lowers[0])))
    upper = tuple(max(hi[i] for hi in uppers) for i in range(len(uppers[0])))
    return SampledOracle(
        member=member,
        lower=lower,
        upper=upper,
        resolution=resolution,
        seeds=tuple(dict.fromkeys(seeds)),
        exact=False,
    )


# --------------------------------------------------------------------------
# diameters


def diameter_with_witness(space: MetricSpace, rep: SetRep):
    """Diameter and a point pair achieving it (a grid lower bound for
    oracle representations)."""
    if isinstance(rep, Singleton):
        return 0, (rep.point, rep.point)
    if isinstance(rep, Box):
        if space.p != math.inf:
            raise MclabError("box diameters are exact only under the sup metric")
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


def diameter(space: MetricSpace, rep: SetRep) -> Scalar:
    return diameter_with_witness(space, rep)[0]


# --------------------------------------------------------------------------
# serialization


def setrep_to_json(rep: SetRep) -> dict:
    """Tagged JSON form; oracle membership predicates serialize as their
    bounding data and certified seed members only."""
    from .spaces import point_to_json

    out = {"repr": rep.kind, "exact": rep.exact}
    if isinstance(rep, Singleton):
        out["point"] = point_to_json(rep.point)
    elif isinstance(rep, Box):
        out["lower"] = point_to_json(rep.lower)
        out["upper"] = point_to_json(rep.upper)
    elif isinstance(rep, FiniteSet):
        out["points"] = [point_to_json(p) for p in rep.points]
    else:
        out["lower"] = point_to_json(rep.lower)
        out["upper"] = point_to_json(rep.upper)
        out["resolution"] = rep.resolution
        out["seeds"] = [point_to_json(p) for p in rep.seeds]
    return out
