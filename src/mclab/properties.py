"""Verdict engines for the convexity properties.

Each checker samples configurations from a seeded plan and returns a
PropertyVerdict: holds with the sample plan and the worst observed slack,
fails with a certificate that re-evaluates through the public operations,
or refused when the operation the property quantifies over is undefined on
the space.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .arith import Scalar
from .convexsets import (
    DEFAULT_TOL,
    Box,
    FiniteSet,
    MidConvention,
    SetRep,
    chord_points,
    diameter_with_witness,
    lifted_union,
    midpoint_set,
    segment,
    segment_points,
    sphere_equivalence_check,
    unique_midpoint,
)
from .errors import MembershipError, MclabError, UniqueMidpointUndefined
from .hausdorff import finite_hausdorff_value, hausdorff
from .sampling import (
    SamplePlan,
    sample_distinct_pair,
    sample_finite_points,
    sample_point,
    sample_t,
)
from .spaces import VECTOR, MetricSpace, distance, vadd, vscale
from .verdicts import FAILS, HOLDS, REFUSED, PropertyVerdict, first_failure, verdict

PROPERTY_NAMES = ("A", "B", "Bprime", "Bdoubleprime", "C")


def _refuse_unused(name: str, plan: SamplePlan, fields) -> None:
    """Refuse a plan that sets a field the checker `name` never draws from
    (B'' and homogeneity draw no (x, y) pair, homogeneity no t): its
    verdict would record the field as if the draws had honoured it."""
    for field in fields:
        if getattr(plan, field) is not None:
            raise MclabError(f"{name} does not use the sample plan's {field}")


# --------------------------------------------------------------------------
# Menger convexity


def check_menger_convex(
    space: MetricSpace,
    plan: SamplePlan,
    tol: float = DEFAULT_TOL,
) -> PropertyVerdict:
    """Between any two sampled points, at the sampled split, some third point
    realises both sphere equalities: the midpoint set is constructed and its
    sampled members are checked on both spheres by
    `sphere_equivalence_check`."""

    def trials():
        rng = plan.rng()
        for k in range(plan.count):
            x, y = sample_distinct_pair(rng, space, plan)
            t = sample_t(rng, space, plan, k)
            v = sphere_equivalence_check(space, x, y, t, MidConvention.FROM_X, tol)
            yield v.max_slack, lambda: v.witness

    return first_failure("MengerConvex", trials(), space.limit(tol), plan, worst=0)


# --------------------------------------------------------------------------
# properties (A), (B), (B'), (B''), (C)


def check_property(
    space: MetricSpace,
    which: str,
    conv: MidConvention = MidConvention.FROM_Y,
    plan: SamplePlan | None = None,
    diam_tol: float = 1e-6,
    tol: float = DEFAULT_TOL,
) -> PropertyVerdict:
    if which not in PROPERTY_NAMES:
        raise MclabError(f"unknown property {which!r}")
    plan = plan or SamplePlan()
    if which == "A":
        return _check_a(space, conv, plan, diam_tol)
    if which == "B":
        return _check_b(space, plan, tol)
    if which == "Bprime":
        return _check_bprime(space, conv, plan, tol)
    if which == "Bdoubleprime":
        return _check_bdoubleprime(space, conv, plan, tol)
    return _check_c(space, conv, plan, tol)


def _check_a(space, conv, plan, diam_tol):
    """Property (A): every midpoint set is a single point."""

    def trials():
        rng = plan.rng()
        for k in range(plan.count):
            x, y = sample_distinct_pair(rng, space, plan)
            t = sample_t(rng, space, plan, k)
            rep = midpoint_set(space, x, y, t, conv)
            diam, (p, q) = diameter_with_witness(space, rep)
            yield diam, lambda: {
                "x": x,
                "y": y,
                "t": t,
                "point_1": p,
                "point_2": q,
                "distance": diam,
                "distance_to_x_1": distance(space, p, x),
                "distance_to_x_2": distance(space, q, x),
                "distance_to_y_1": distance(space, p, y),
                "distance_to_y_2": distance(space, q, y),
            }

    return first_failure("A", trials(), space.limit(diam_tol), plan, conv, worst=0)


def _check_b(space, plan, tol):
    """Property (B): the unique-midpoint map contracts with factor t in its
    first argument."""
    try:
        space.require_unique_midpoints()
    except UniqueMidpointUndefined as exc:
        return verdict("B", REFUSED, plan=plan, reason=str(exc))
    equality_hit = False

    def trials():
        nonlocal equality_hit
        rng = plan.rng()
        for k in range(plan.count):
            x, y = sample_distinct_pair(rng, space, plan)
            z = sample_point(rng, space, plan)
            while z == y:
                z = sample_point(rng, space, plan)
            t = sample_t(rng, space, plan, k)
            mx = unique_midpoint(space, x, y, t)
            mz = unique_midpoint(space, z, y, t)
            lhs = distance(space, mx, mz)
            rhs = t * distance(space, x, z) if x != z else 0
            slack = lhs - rhs
            equality_hit = equality_hit or (x != z and abs(slack) <= 1e-6)
            yield slack, lambda: {"x": x, "y": y, "z": z, "t": t, "lhs": lhs, "rhs": rhs}

    b = first_failure("B", trials(), space.limit(tol), plan)
    if b.holds:
        b.witness = {"equality_attained": equality_hit}
    return b


def _check_bprime(space, conv, plan, tol):
    """Property (B'): Hausdorff contraction of the midpoint set in its first
    argument with factor t.  On a strictly convex space both sets are
    chord points: the value comes from `finite_hausdorff_value`, and the
    Hausdorff witness is built only for a failing trial."""

    def trials():
        rng = plan.rng()
        for k in range(plan.count):
            x, y = sample_distinct_pair(rng, space, plan)
            z = sample_point(rng, space, plan)
            while z == y or z == x:
                z = sample_point(rng, space, plan)
            t = sample_t(rng, space, plan, k)
            cx = midpoint_set(space, x, y, t, conv)
            cz = midpoint_set(space, z, y, t, conv)
            if space.unique_midpoints:
                lhs = finite_hausdorff_value(space, (cx.point,), (cz.point,))
                h = None
            else:
                h = hausdorff(space, cx, cz)
                lhs = h.value
            rhs = t * distance(space, x, z)
            yield lhs - rhs, lambda: {
                "x": x,
                "y": y,
                "z": z,
                "t": t,
                "lhs": lhs,
                "rhs": rhs,
                "ratio": lhs / distance(space, x, z),
                "hausdorff_witness": (h or hausdorff(space, cx, cz)).witness,
            }

    return first_failure("Bprime", trials(), space.limit(tol), plan, conv)


def _check_bdoubleprime(space, conv, plan, tol):
    """Property (B''): Hausdorff contraction of the set-lifted union.  Its
    trials read Hausdorff values only: the right side, and on a strictly
    convex space the left side over the chord points, come from
    `finite_hausdorff_value`, which builds no set or result."""
    _refuse_unused("Bdoubleprime", plan, ("anchor_x",))

    def trials():
        rng = plan.rng()
        for k in range(plan.count):
            pts_a = sample_finite_points(rng, space, plan)
            pts_b = sample_finite_points(rng, space, plan)
            y = sample_point(rng, space, plan)
            t = sample_t(rng, space, plan, k)
            if space.unique_midpoints:
                # one call for both sets' chord points; a repeated point
                # cannot change a Hausdorff value
                chords = chord_points(space, (*pts_a, *pts_b), y, t, conv)
                n = len(pts_a)
                lhs = finite_hausdorff_value(space, chords[:n], chords[n:])
            else:
                CA = lifted_union(space, FiniteSet(pts_a), y, t, conv)
                CB = lifted_union(space, FiniteSet(pts_b), y, t, conv)
                lhs = hausdorff(space, CA, CB).value
            rhs = t * finite_hausdorff_value(space, pts_a, pts_b)
            yield lhs - rhs, lambda: {
                "A": list(pts_a),
                "B": list(pts_b),
                "y": y,
                "t": t,
                "lhs": lhs,
                "rhs": rhs,
            }

    return first_failure("Bdoubleprime", trials(), space.limit(tol), plan, conv)


def _check_c(space, conv, plan, tol):
    """Property (C): midpoint sets of segment members stay on the segment.

    Its budget runs over the sampled members of each drawn midpoint set, and
    a holding verdict records no slack."""
    t_grid = [Fraction(j, 8) if space.exact else j / 8 for j in range(1, 8)]

    def trials():
        rng = plan.rng()
        x, y = sample_distinct_pair(rng, space, plan)
        d = distance(space, x, y)
        seg = segment(space, x, y, t_grid, conv)
        pool = segment_points(seg)
        # seeded random exploration of (u, v, s) triples over the pool; an
        # ordered scan would spend the whole budget near one corner
        checks = 0
        while checks < plan.count:
            u = pool[rng.randrange(len(pool))]
            v = pool[rng.randrange(len(pool))]
            if u == v:
                continue
            s = t_grid[rng.randrange(len(t_grid))]
            rep = midpoint_set(space, u, v, s, conv)
            for w in rep.sample_points()[: plan.count - checks]:
                checks += 1
                dsum = distance(space, x, w) + distance(space, w, y)
                yield abs(dsum - d), lambda: {
                    "x": x,
                    "y": y,
                    "u": u,
                    "v": v,
                    "s": s,
                    "point": w,
                    "distance_sum": dsum,
                    "segment_length": d,
                }

    c = first_failure("C", trials(), space.limit(tol), plan, conv)
    if c.holds:
        c.max_slack = None
    return c


# --------------------------------------------------------------------------
# betweenness of midpoints at two parameters


def check_betweenness(
    space: MetricSpace,
    x,
    y,
    t1: Scalar,
    t2: Scalar,
    p1,
    p2,
    conv: MidConvention = MidConvention.FROM_X,
    tol: float = DEFAULT_TOL,
) -> PropertyVerdict:
    """Does the deeper midpoint p2 lie between p1 and y?

    Membership of p1 and p2 in their midpoint sets is verified first; the
    verdict then compares d(p1, p2) + d(p2, y) with d(p1, y).
    """
    if not t1 < t2:
        raise MclabError("need t1 < t2")
    rep1 = midpoint_set(space, x, y, t1, conv)
    rep2 = midpoint_set(space, x, y, t2, conv)
    limit = space.limit(tol)
    if not rep1.contains(p1, limit):
        raise MembershipError("p1 is not a member of the first midpoint set")
    if not rep2.contains(p2, limit):
        raise MembershipError("p2 is not a member of the second midpoint set")
    lhs = distance(space, p1, p2) + distance(space, p2, y)
    rhs = distance(space, p1, y)
    gap = abs(lhs - rhs)
    return verdict(
        "Betweenness",
        FAILS if gap > limit else HOLDS,
        conv=conv,
        samples=1,
        witness={
            "x": x,
            "y": y,
            "t1": t1,
            "t2": t2,
            "p1": p1,
            "p2": p2,
            "sum_via_p2": lhs,
            "direct": rhs,
        },
        max_slack=gap,
    )


# --------------------------------------------------------------------------
# homogeneity of the metric under scaling


def check_homogeneity(
    space: MetricSpace,
    plan: SamplePlan,
    cap: Scalar | None = None,
    tol: float = 1e-12,
) -> PropertyVerdict:
    """d(0, a*x) = |a| * d(0, x) over sampled scalars and points.

    With `cap`, the metric is replaced by min(cap, d); the identity then
    fails, certifying that scaling by straight-line combination cannot be a
    convex structure for the bounded metric.
    """
    if space.carrier != VECTOR:
        raise MclabError("homogeneity checks need a vector carrier")
    _refuse_unused("Homogeneity", plan, ("anchor_x", "t_values"))
    zero = (0,) * space.dim
    e1 = (1,) + (0,) * (space.dim - 1)

    def metric(a, b):
        d = distance(space, a, b)
        if cap is not None:
            return min(cap, d)
        return d

    def scalings():
        yield from [(0, e1), (3, e1), (-2, e1)]
        rng = plan.rng()
        for _ in range(plan.count):
            alpha = rng.uniform(-4, 4)
            if space.exact:
                alpha = Fraction(rng.randint(-4 * 16, 4 * 16), 16)
            yield alpha, sample_point(rng, space, plan)

    def trials():
        for alpha, x in scalings():
            lhs = metric(zero, vscale(x, alpha))
            rhs = abs(alpha) * metric(zero, x)
            yield abs(lhs - rhs), lambda: {
                "alpha": alpha,
                "x": x,
                "lhs": lhs,
                "rhs": rhs,
                "cap": cap,
            }

    return first_failure("Homogeneity", trials(), space.limit(tol), plan, worst=0)


# --------------------------------------------------------------------------
# strict diameter drop for closed sets inside an interior


def check_diameter_strict(
    space: MetricSpace,
    A: Box,
    C: SetRep,
    tol: float = DEFAULT_TOL,
) -> PropertyVerdict:
    """Ratio of the diameter of a closed set C to the diameter of the
    interior it sits in; holds when the ratio is strictly below 1."""
    if not isinstance(A, Box):
        raise MclabError("the enclosing set must be a box")
    points = C.sample_points()
    for z in points:
        if not all(lo < c < hi for lo, c, hi in zip(A.lower, z, A.upper)):
            raise MembershipError(
                f"sampled point {z} of C is not strictly inside the box"
            )
    delta_c, _ = diameter_with_witness(space, C)
    # the interior of a box has the same diameter as its closure
    delta_int, _ = diameter_with_witness(space, A)
    k_hat = delta_c / delta_int if delta_c else delta_c
    return verdict(
        "DiameterStrict",
        HOLDS if k_hat < 1 - space.limit(tol) else FAILS,
        samples=len(points),
        witness={
            "diameter_inner": delta_c,
            "diameter_interior": delta_int,
            "k_hat": k_hat,
        },
        max_slack=k_hat,
    )


# --------------------------------------------------------------------------
# uniform convexity modulus

# directions of y - x, from e1 to the diagonal of the (e1, e2) plane
_MODULUS_DIRECTIONS = 33
# bisection steps on each side of the unit sphere around x
_MODULUS_BISECTIONS = 60


def estimate_uniform_modulus(space: MetricSpace, eps_values):
    """Modulus of uniform convexity of (R^n, d_p), 1 < p < inf, as pairs
    (eps, 1 - max d(z, m)) over d(z, x) <= 1, d(z, y) <= 1, d(x, y) = eps,
    with m the midpoint of x and y; eps must lie in [0, 2].

    One deterministic sweep over the configurations that attain the modulus.
    y - x runs over directions of the (e1, e2) plane from e1 to the diagonal:
    the axis swaps and sign flips of a d_p ball carry that eighth of the
    circle onto the whole circle, and d_p attains its modulus in that plane,
    on an axis for p >= 2 (Clarkson) and on the diagonal for 1 < p < 2
    (Hanner).  With x = -y, m is the origin, and z runs over the unit sphere
    around x in that plane from the point towards y, inside the ball around
    y, to the point away from it, outside; bisection keeps the last z inside
    on each side.  Every z kept passes d(z, y) <= 1, so the estimate is
    below the modulus only where that test rounds (for large p near
    eps = 2).  In dimension 1 the plane folds onto e1 and the estimate is
    eps/2.
    """
    space.require_unique_midpoints()
    eps_list = list(eps_values)
    for eps in eps_list:
        if not 0 <= eps <= 2:
            raise MclabError(f"eps must lie in [0, 2], not {eps!r}")
    origin = (0.0,) * space.dim

    def unit(theta):
        u = ((math.cos(theta), math.sin(theta)) + origin[2:])[: space.dim]
        return vscale(u, 1 / distance(space, u, origin))

    out = []
    for eps in eps_list:
        best = 0.0
        for k in range(_MODULUS_DIRECTIONS):
            phi = math.pi / 4 * k / (_MODULUS_DIRECTIONS - 1)
            y = vscale(unit(phi), eps / 2)
            x = vscale(y, -1)
            for side in (math.pi, -math.pi):
                inside, outside = phi, phi + side
                for _ in range(_MODULUS_BISECTIONS):
                    theta = (inside + outside) / 2
                    if distance(space, vadd(x, unit(theta)), y) <= 1:
                        inside = theta
                    else:
                        outside = theta
                best = max(best, distance(space, vadd(x, unit(inside)), origin))
        out.append((eps, 1.0 - best))
    return out
