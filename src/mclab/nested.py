"""Decreasing families of ball-intersection sets and common-point search.

Sets are stored intensionally as lists of `MetricBall`s of one space, whose
constructor validates each center and radius, and never enumerated.
Feasibility is established by cyclic projection over all ball constraints.
Each step is `MetricBall.project`, one Euclidean projection step per
metric: onto the ball itself under d_1, d_2 and d_inf, onto a supporting
half-space of it for any other p.  Every d_p ball is a convex subset of
R^n, so the cyclic steps converge, also when over-relaxed by a factor in
(0, 2) (Bauschke & Borwein, SIAM Review 1996; Censor & Lent, Math.
Programming 1982); from the second sweep on each step is over-relaxed.
Each distance from the current point to a center is measured once per
position of the point.  A family whose diameter estimates vanish has a
common point unique up to the last estimate: two points within tol of
every ball lie within r + tol of the center c of each ball B[c, r], so
the last set's smallest ball puts them within the last estimate plus
2 tol of each other, in any metric.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import parse_scalar, parse_vector
from .convexsets import MetricBall
from .errors import NestingError, SolverFailure
from .spaces import MetricSpace, distance, vlerp


@dataclass(frozen=True)
class NestedFamily:
    """Ordered list of sets, each an intersection of finitely many balls."""

    sets: tuple  # of tuples of MetricBall
    diam_estimates: tuple  # per set, min over balls of 2r (an upper bound)

    def all_balls(self):
        for balls in self.sets:
            yield from balls


def family_of_balls(ball_sets) -> NestedFamily:
    sets = tuple(tuple(bs) for bs in ball_sets)
    if not sets or any(not bs for bs in sets):
        raise NestingError("every set needs at least one ball")
    est = tuple(min(2 * b.radius for b in bs) for bs in sets)
    return NestedFamily(sets, est)


def build_shrinking_family(space: MetricSpace, centers, radii) -> NestedFamily:
    """Family of single closed balls B[c_n, r_n] with each ball containing
    the next: radii strictly decreasing and d(c_n, c_{n+1}) <= r_n - r_{n+1}."""
    if len(centers) != len(radii):
        raise NestingError("need one center per radius")
    if any(r <= 0 for r in radii):
        raise NestingError("radii must be positive")
    if any(a <= b for a, b in zip(radii, radii[1:])):
        raise NestingError("radii must be strictly decreasing")
    for c1, c2, r1, r2 in zip(centers, centers[1:], radii, radii[1:]):
        drift = distance(space, c1, c2)
        if drift > r1 - r2:
            raise NestingError(
                f"consecutive balls not nested: drift {drift} exceeds {r1 - r2}"
            )
    return family_of_balls([[MetricBall(space, tuple(c), r)] for c, r in zip(centers, radii)])


def max_violation(space: MetricSpace, family: NestedFamily, z):
    balls = tuple(family.all_balls())
    return _worst_gap(balls, [distance(space, z, ball.center) for ball in balls])


def _worst_gap(balls, dists):
    """(largest d(z, c) - r over the balls, the first ball attaining it), or
    (0, None) when z lies in every ball; `dists` holds d(z, c) per ball."""
    worst = 0
    worst_ball = None
    for ball, d in zip(balls, dists):
        gap = d - ball.radius
        if gap > worst:
            worst = gap
            worst_ball = ball
    return worst, worst_ball


_MAX_SWEEPS = 10_000  # the sweep budget of the cyclic projection

# Every step from the second sweep on is over-relaxed by this factor, which
# cyclic projections onto convex sets tolerate anywhere in (0, 2); a float
# space takes it as a float.
_RELAX = Fraction(9, 5)

# Sweeps without a new best violation before the search is declared stalled.
# An over-relaxed search can go a few dozen sweeps without a new best on a
# thin feasible intersection before it improves again, so a shorter
# patience declares feasible random families stalled.
_PATIENCE = 50


def common_point(space: MetricSpace, family: NestedFamily, tol: float = 1e-6):
    """Point satisfying every ball constraint within tol, found by cyclic
    projection (Bauschke & Borwein, SIAM Review 1996) from the first ball's
    center, one `MetricBall.project` step per violated ball.  The first
    sweep takes each step as it is, so a family that one sweep solves gets
    the plain projection; from the second sweep on each step is
    over-relaxed by `_RELAX`, z <- z + _RELAX (w - z).  Every returned
    point meets tol by its measured distances.  Raises SolverFailure when
    `_PATIENCE` sweeps pass without a new best violation or the
    `_MAX_SWEEPS` budget runs out (infeasible input, or a search that
    failed); its certificate holds the sweeps run and the point of the
    smallest violation seen, with that violation.

    Each d(z, c_i) is measured once per position of z: a projection that
    leaves z where it is keeps its distance for the violation pass, and the
    violation pass's distances serve the next sweep until z moves."""
    z = family.sets[0][0].center
    balls = tuple(family.all_balls())
    relax = _RELAX if space.exact else float(_RELAX)
    known = [None] * len(balls)  # d(z, c_i) at the current z, where measured
    best = None  # (violation, point, first ball attaining it), smallest yet
    stalled = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        for i, ball in enumerate(balls):
            d = known[i]
            if d is None:
                d = known[i] = distance(space, z, ball.center)
            if not d <= ball.radius:
                w = ball.project(z, d)
                z = w if sweep == 1 else vlerp(z, w, relax)
                known = [None] * len(balls)
        known = [
            distance(space, z, ball.center) if d is None else d
            for ball, d in zip(balls, known)
        ]
        violation, worst_ball = _worst_gap(balls, known)
        if violation <= tol:
            return z
        if best is not None and violation >= best[0] - 1e-15:
            stalled += 1
            if stalled >= _PATIENCE:
                raise SolverFailure(
                    "cyclic projection stalled above tolerance",
                    certificate=_failure_certificate(best, sweep),
                )
        else:
            stalled = 0
        if best is None or violation < best[0]:
            best = (violation, z, worst_ball)
    raise SolverFailure(
        "cyclic projection exhausted its sweep budget",
        certificate=_failure_certificate(best, _MAX_SWEEPS),
    )


def _failure_certificate(best, sweeps):
    """What a failed search did: its sweeps, and the point of the smallest
    violation it saw, with that violation and the first ball attaining it."""
    violation, point, ball = best
    return {
        "violation": violation,
        "ball_center": ball.center,
        "ball_radius": ball.radius,
        "sweeps": sweeps,
        "point": point,
    }


def cantor_point(space: MetricSpace, family: NestedFamily, tol: float = 1e-6):
    """Common point of a family whose diameter estimates drop below tol.

    The point is unique up to the bound the last estimate gives: let est be
    the least 2r over the balls B[c, r] of the last set.  The returned point
    and any other point within tol of every ball lie within r + tol of c,
    so within est + 2 tol of each other, in any metric.
    """
    est = family.diam_estimates
    if any(a < b for a, b in zip(est, est[1:])):
        raise NestingError("diameter estimates must not increase")
    if est[-1] >= tol:
        raise NestingError(
            f"diameter estimates never drop below tol ({est[-1]} >= {tol})"
        )
    return common_point(space, family, tol)


def family_from_json(data, space: MetricSpace) -> NestedFamily:
    """Family JSON: a list of sets, each a list of {center, radius} balls."""
    if not isinstance(data, list) or not all(
        isinstance(entry, list)
        and all(isinstance(b, dict) and {"center", "radius"} <= b.keys() for b in entry)
        for entry in data
    ):
        raise NestingError(
            "a family is a JSON list of sets, each a list of {center, radius} balls"
        )
    return family_of_balls(
        [
            MetricBall(space, parse_vector(b["center"], "center"), parse_scalar(b["radius"]))
            for b in entry
        ]
        for entry in data
    )

