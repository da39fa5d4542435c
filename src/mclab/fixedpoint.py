"""Generalized hybrid mappings, orbits, asymptotic centers, and fixed points.

A mapping T on a subset U is (alpha, beta)-generalized hybrid when

    alpha*d(Tx,Ty)^2 + (1-alpha)*d(x,Ty)^2
        <= beta*d(Tx,y)^2 + (1-beta)*d(x,y)^2

for all x, y in U, with alpha outside (0, 1) and beta in [0, 1].  The class
contains nonexpansive mappings at (1, 0) and metrically nonspreading
mappings at (2, 1).  When some orbit is bounded, the tail of the orbit
defines a functional whose minimiser, the asymptotic center, is a fixed
point.  The orbit stops iterating at its first exact repeat, whose cycle
gives every later point.  The functional is evaluated over the distinct tail
points only: an orbit that has reached a float fixed point or cycle repeats
a few points many times, and equal points give equal distances, so the
maximum over the distinct points in order of first occurrence is the
maximum over the whole tail, bit for bit.

The minimiser is taken in closed form where one exists: the point itself
for a one-point tail, the midpoint for a two-point tail under any p, and
the midpoint of the tail's bounding box under d_inf.  Otherwise (d_1 or
1 < p < inf, with three or more distinct tail points) a deterministic
derivative-free compass search minimises the functional.

The search only asks whether a candidate beats the best value so far by a
margin, so it hands that threshold to the functional, which abandons a
candidate early: it measures the first tail point, and when half that
distance already reaches the threshold it returns it, since the maximum
over the tail can only be larger.  Such a candidate is rejected as it was
with the full value, so the point, value and evaluation count of a search
are those of a search that measures every tail point.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import Scalar, in_float_range, parse_float, parse_scalar, parse_vector
from .convexsets import Box, MetricBall
from .errors import DomainEscape, MclabError, SolverFailure
from .sampling import SamplePlan
from .spaces import MetricSpace, check_point, distance, distances, vlerp
from .verdicts import FAILS, HOLDS, PropertyVerdict, verdict


# --------------------------------------------------------------------------
# mapping specifications


@dataclass(frozen=True)
class Affine:
    matrix: tuple  # rows
    offset: tuple

    def apply(self, x):
        return tuple(
            sum(m * c for m, c in zip(row, x)) + o
            for row, o in zip(self.matrix, self.offset)
        )


@dataclass(frozen=True)
class Rotation:
    """Planar rotation about a center (two-dimensional carriers)."""

    angle: float
    center: tuple = (0.0, 0.0)

    def apply(self, x):
        dx, dy = x[0] - self.center[0], x[1] - self.center[1]
        c, s = math.cos(self.angle), math.sin(self.angle)
        return (
            self.center[0] + c * dx - s * dy,
            self.center[1] + s * dx + c * dy,
        )


class BoxProjection(Box):
    """Componentwise clamp onto an axis-aligned box: the box's own
    `nearest`, with its bounds checked as a box domain's are."""

    apply = Box.nearest


@dataclass(frozen=True)
class Composition:
    maps: tuple

    def apply(self, x):
        for m in self.maps:
            x = m.apply(x)
        return x


Mapping = Affine | Rotation | BoxProjection | Composition


# the slack of every domain membership test
DOMAIN_TOL = 1e-12

# the solver's settings: the orbit length, the tail window of the
# functional, the compass search's evaluation budget, and the distance from
# the start beyond which an orbit is unbounded
_ORBIT_STEPS = 256
_WINDOW = 32
_BUDGET = 20_000
_RMAX = 1e6


@dataclass(frozen=True)
class WholeSpace:
    """The whole of R^dim: every point is a member, and the cube of
    half-width `radius` about the origin is only the window that sampling
    and the search draw from."""

    dim: int
    radius: float = 8.0

    def __post_init__(self):
        if not self.radius >= 0:
            raise MclabError(f"window radius must be at least 0, not {self.radius!r}")

    def contains(self, z, tol: float = 0) -> bool:
        return True

    @property
    def lower(self):
        return (-self.radius,) * self.dim

    @property
    def upper(self):
        return (self.radius,) * self.dim


Domain = MetricBall | Box | WholeSpace


@dataclass(frozen=True)
class MappingSpec:
    mapping: Mapping
    domain: Domain

    def apply(self, x):
        return self.mapping.apply(x)


@dataclass(frozen=True)
class HybridParams:
    alpha: Scalar
    beta: Scalar

    def __post_init__(self):
        if 0 < self.alpha < 1:
            raise MclabError("alpha must lie outside the open interval (0, 1)")
        if not (0 <= self.beta <= 1):
            raise MclabError("beta must lie in [0, 1]")
        # verify_hybrid takes alpha, 1 - alpha, beta and 1 - beta as floats;
        # the last two lie in [0, 1]
        for name, w in (("alpha", self.alpha), ("1 - alpha", 1 - self.alpha)):
            in_float_range(w, name)


def _sample_domain_point(rng, domain: Domain):
    bounds = list(zip(domain.lower, domain.upper))
    # `rng.uniform(lo, hi)` as CPython defines it, with `random` bound once
    random = rng.random
    for _ in range(10_000):
        z = tuple([lo + (hi - lo) * random() for lo, hi in bounds])
        if domain.contains(z, DOMAIN_TOL):
            return z
    raise SolverFailure("rejection sampling found no domain point")


# --------------------------------------------------------------------------
# hybrid verification


def verify_hybrid(
    space: MetricSpace,
    spec: MappingSpec,
    params: HybridParams,
    plan: SamplePlan | None = None,
    tol: float = 1e-9,
) -> PropertyVerdict:
    """Sample pairs from the domain and test the hybrid inequality; the worst
    sample's four squared distances are recorded.

    A pair that leaves the float range cannot be decided, and raises
    SolverFailure rather than recording inf or NaN: an image with an inf or
    NaN coordinate (an overflow in the mapping, not a point outside the
    domain), a square beyond the range, or a slack that is not finite (a
    side that is inf or NaN, from inf - inf or 0 * inf, or finite sides
    whose difference overflows)."""
    plan = plan or SamplePlan()
    rng = plan.rng()
    a, a1, b, b1 = (
        (w, float(w))
        for w in (params.alpha, 1 - params.alpha, params.beta, 1 - params.beta)
    )
    max_slack = None
    worst = None
    for _ in range(plan.count):
        x = _sample_domain_point(rng, spec.domain)
        y = _sample_domain_point(rng, spec.domain)
        tx = spec.apply(x)
        ty = spec.apply(y)
        # checked on every domain: under d_inf, `max` can pass over a NaN
        if not all(map(_finite, (*tx, *ty))):
            raise _out_of_float_range(x, y)
        for image in (tx, ty):
            if not spec.domain.contains(image, DOMAIN_TOL):
                raise DomainEscape(f"mapping sends a sampled point to {image}")
        try:
            d_txty = distance(space, tx, ty) ** 2
            d_xty = distance(space, x, ty) ** 2
            d_txy = distance(space, tx, y) ** 2
            d_xy = distance(space, x, y) ** 2
        except OverflowError:
            # float ** raises where float * gives inf
            raise _out_of_float_range(x, y) from None
        lhs = _weighted(a, d_txty) + _weighted(a1, d_xty)
        rhs = _weighted(b, d_txy) + _weighted(b1, d_xy)
        slack = lhs - rhs
        # a side that is inf or NaN makes the slack so, and so do finite
        # sides whose difference overflows
        if not _finite(slack):
            raise _out_of_float_range(x, y)
        if max_slack is None or slack > max_slack:
            max_slack = slack
            worst = {
                "x": x,
                "y": y,
                "d(Tx,Ty)^2": d_txty,
                "d(x,Ty)^2": d_xty,
                "d(Tx,y)^2": d_txy,
                "d(x,y)^2": d_xy,
                "lhs": lhs,
                "rhs": rhs,
            }
    return verdict(
        "GeneralizedHybrid",
        HOLDS if max_slack <= tol else FAILS,
        plan=plan,
        samples=plan.count,
        max_slack=max_slack,
        witness=worst,
    )


def _weighted(weight, square):
    """`w * square` for weight = (w, float(w)).  A Fraction or int w times a
    float is float(w) times it, so a float square takes the float, which
    skips the Fraction arithmetic; an int or Fraction square keeps the exact
    product."""
    w, fw = weight
    return fw * square if isinstance(square, float) else w * square


def _finite(value) -> bool:
    """False for a float inf or NaN; ints and Fractions are finite."""
    return not isinstance(value, float) or math.isfinite(value)


def _out_of_float_range(x, y) -> SolverFailure:
    return SolverFailure(
        f"the hybrid inequality leaves the float range at x = {x}, y = {y}",
        certificate={"x": x, "y": y},
    )


# --------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitResult:
    points: tuple
    radius: Scalar  # max distance from the start over the orbit
    bounded: bool


def orbit(space: MetricSpace, spec: MappingSpec, x0, n: int) -> OrbitResult:
    """Iterate the mapping n steps from x0; flag the orbit unbounded as soon
    as the distance back to x0 exceeds _RMAX.

    The mapping is a function of its point alone, so once x_k repeats an
    earlier x_j bit for bit the orbit cycles through x_j, ..., x_{k-1} from
    there on: the remaining points are copied from that cycle, with no map
    application, membership test or distance.  Each of them was tested and
    measured when it first came, so the points, radius and bound are those
    of the full iteration.  Points are compared by `repr`, which tells 0.0
    from -0.0 where `==` and hashing do not."""
    if not spec.domain.contains(x0, DOMAIN_TOL):
        raise DomainEscape("starting point lies outside the domain")
    x = tuple(x0)
    points = [x]
    first = {repr(x): 0}  # index of each point's first occurrence
    radius = distance(space, x, x0)  # zero of the space's scalar type
    for k in range(1, n + 1):
        x = tuple(spec.apply(x))
        j = first.setdefault(repr(x), k)
        if j < k:
            points += [points[j + (m - j) % (k - j)] for m in range(k, n + 1)]
            break
        if not spec.domain.contains(x, DOMAIN_TOL):
            raise DomainEscape(f"orbit escaped the domain at {x}")
        points.append(x)
        r = distance(space, x, x0)
        if r > radius:
            radius = r
        if radius > _RMAX:
            return OrbitResult(tuple(points), radius, False)
    return OrbitResult(tuple(points), radius, True)


# --------------------------------------------------------------------------
# asymptotic functional


@dataclass(frozen=True)
class AsymptoticFunctional:
    """Tail functional of a bounded orbit.

    The value at y is half of the maximum distance from the last `window`
    orbit points to y: every member of the half-way midpoint set of an orbit
    point and y sits at exactly half their distance, so the functional does
    not depend on which member is chosen.  The limit superior over the orbit
    is approximated by the maximum over the tail window, taken over
    `distinct_tail`, the tail's distinct points in order of first occurrence.
    `radius` is the orbit's, when the orbit measured it.
    """

    points: tuple
    window: int
    radius: Scalar | None = None
    distinct_tail: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.window < 1 or len(self.points) < self.window:
            raise MclabError("orbit length must be at least the tail window")
        object.__setattr__(self, "distinct_tail", tuple(dict.fromkeys(self.tail)))

    @property
    def tail(self):
        return self.points[-self.window :]


def asymptotic_center(space: MetricSpace, F: AsymptoticFunctional, y) -> Scalar:
    """Value of the orbit-tail functional at y.

    A tail that has settled on one point, as most contractions' do, costs
    one `distance`: `distances` gives that value, and the maximum of one
    value is itself.  `find_fixed_point` reads a closed-form center's value
    here; its search reads `_tail_value` with an acceptance threshold,
    which stops once the first tail point alone reaches the threshold."""
    return _tail_value(space, F, y, None)


def _tail_value(space: MetricSpace, F: AsymptoticFunctional, y, threshold) -> Scalar:
    """The functional at y, or a value at least `threshold` that is at most
    it.  Half the distance to the first tail point is measured first; when
    it reaches `threshold` (None is never reached) it is returned, since the
    maximum over the tail is no smaller.  Otherwise the whole row is
    measured, the first point again, so the maximum is taken over the same
    values in the same order as without a threshold."""
    half = Fraction(1, 2) if space.exact else 0.5
    tail = F.distinct_tail
    first = half * distance(space, tail[0], y)
    if len(tail) == 1 or (threshold is not None and first >= threshold):
        return first
    return half * max(distances(space, y, tail))


def make_asymptotic_functional(
    space: MetricSpace, spec: MappingSpec, x0
) -> AsymptoticFunctional:
    """The functional of the last _WINDOW points of the _ORBIT_STEPS-step
    orbit from x0; an unbounded orbit raises SolverFailure."""
    orb = orbit(space, spec, x0, _ORBIT_STEPS)
    if not orb.bounded:
        if _finite(orb.radius):
            raise SolverFailure(
                "orbit unbounded; the tail functional is undefined",
                certificate={"radius": orb.radius, "rmax": _RMAX},
            )
        # an inf radius has no JSON number, so the certificate omits it
        raise SolverFailure(
            "orbit unbounded: its distance from the start left the float range;"
            " the tail functional is undefined",
            certificate={"rmax": _RMAX},
        )
    return AsymptoticFunctional(orb.points, _WINDOW, orb.radius)


# --------------------------------------------------------------------------
# minimising the tail functional: closed forms, else a compass search


def pattern_search(f, lower, upper, feasible, xtol: float = 1e-9):
    """Derivative-free compass search over a box with deterministic scan order.

    Starts from the best feasible point of a grid of 5 values per axis, then
    repeatedly tries +/- step moves along each axis, halving the step
    whenever no move improves, until the step is at most `xtol` or _BUDGET
    evaluations are spent.  Returns (point, value, evaluations).

    `f(z, threshold)` is called with the value a candidate must fall below
    to be accepted (None while there is no best point): the best value on
    the grid, the best value less 1e-18 in the compass phase.  A value at or
    above the threshold is only compared with it, so f may return any such
    value in place of f(z) without changing the search.
    """
    n = len(lower)
    axes = []
    for lo, hi in zip(lower, upper):
        if lo == hi:
            axes.append([lo])
        else:
            axes.append([lo + (hi - lo) * i / 4 for i in range(5)])
    best = None
    best_val = None
    evals = 0
    for cand in itertools.product(*axes):
        if evals >= _BUDGET:
            break
        if not feasible(cand):
            continue
        v = f(cand, best_val)
        evals += 1
        if best_val is None or v < best_val:
            best, best_val = tuple(cand), v
    if best is None:
        raise SolverFailure("no feasible starting point on the initial grid")
    step = max((hi - lo) for lo, hi in zip(lower, upper)) / 4 or 1.0
    while step > xtol and evals < _BUDGET:
        improved = False
        for i in range(n):
            for sgn in (1, -1):
                cand = list(best)
                cand[i] += sgn * step
                cand[i] = min(max(cand[i], lower[i]), upper[i])
                cand = tuple(cand)
                if cand == best or not feasible(cand):
                    continue
                threshold = best_val - 1e-18
                v = f(cand, threshold)
                evals += 1
                if v < threshold:
                    best, best_val = cand, v
                    improved = True
                    break
                if evals >= _BUDGET:
                    break
            if improved or evals >= _BUDGET:
                break
        if not improved:
            step /= 2
    return best, best_val, evals


@dataclass(frozen=True)
class FixedPointResult:
    point: tuple
    residual: Scalar
    f_value: Scalar
    orbit_radius: Scalar
    evaluations: int
    converged: bool
    method: str  # one of the METHOD_* names: how the minimiser was found


METHOD_SINGLE = "single-point"
METHOD_TWO_POINT = "two-point-midpoint"
METHOD_BOX = "box-midpoint"
METHOD_SEARCH = "compass-search"


def closed_form_center(space: MetricSpace, F: AsymptoticFunctional, domain: Domain):
    """(point, method) minimising the tail functional where it has a closed
    form and the point lies in `domain`, else None.

    One distinct tail point z: z, with value 0.  Two points a, b, any p:
    the midpoint, since no point is nearer than d(a, b)/2 to both.  Under
    d_inf, any tail: the midpoint of the tail's bounding box, since on each
    axis no point is nearer than half the box's width to both ends.  On a
    float space the point has float coordinates, also where a tail point
    carries an int bound of a box projection."""
    tail = F.distinct_tail
    half = Fraction(1, 2) if space.exact else 0.5
    if len(tail) == 1:
        point, method = tail[0], METHOD_SINGLE
    elif len(tail) == 2:
        point, method = vlerp(tail[0], tail[1], half), METHOD_TWO_POINT
    elif space.p == math.inf:
        axes = list(zip(*tail))
        point, method = vlerp(map(min, axes), map(max, axes), half), METHOD_BOX
    else:
        return None
    if not space.exact:
        point = tuple(map(float, point))
    return (point, method) if domain.contains(point, DOMAIN_TOL) else None


def find_fixed_point(
    space: MetricSpace, spec: MappingSpec, x0, tol: float = 1e-6
) -> FixedPointResult:
    """Minimise the orbit-tail functional over the domain and report the
    minimiser with its residual d(T u, u).

    The minimiser is taken in closed form (`closed_form_center`) when the
    tail has one or two distinct points, or the metric is d_inf, and the
    point lies in the domain; it then costs no evaluations.  Otherwise
    (1 < p < inf or d_1, with three or more distinct tail points) a compass
    search minimises the functional.  `method` says which was taken.

    Callers are expected to have verified the hybrid inequality first.  A
    result with residual above `tol` is returned with converged=False rather
    than silently accepted: a one-point tail is a fixed point only when the
    orbit has settled on it.
    """
    F = make_asymptotic_functional(space, spec, x0)

    closed = closed_form_center(space, F, spec.domain)
    if closed is not None:
        u0, method = closed
        f_val, evals = asymptotic_center(space, F, u0), 0
    else:
        method = METHOD_SEARCH
        u0, f_val, evals = pattern_search(
            lambda z, threshold: _tail_value(space, F, z, threshold),
            spec.domain.lower,
            spec.domain.upper,
            feasible=lambda z: spec.domain.contains(z, DOMAIN_TOL),
            xtol=min(tol * 1e-3, 1e-9),
        )
    residual = distance(space, spec.apply(u0), u0)
    return FixedPointResult(
        point=u0,
        residual=residual,
        f_value=f_val,
        orbit_radius=F.radius,
        evaluations=evals,
        converged=residual <= tol,
        method=method,
    )


# --------------------------------------------------------------------------
# JSON mapping specs


def mapping_from_json(obj: dict, space: MetricSpace) -> MappingSpec:
    """Build a MappingSpec on `space` from its JSON form {kind, parameters,
    domain}; a "ball" domain is a ball in the metric of `space`."""
    mapping = _mapping_only_from_json(obj, space.dim)
    domain = _domain_from_json(obj.get("domain"), space)
    return MappingSpec(mapping=mapping, domain=domain)


def _float_scalar(value) -> Scalar:
    """parse_scalar, refusing a value beyond the float range."""
    return in_float_range(parse_scalar(value), f"entry {value!r}")


def _sized_vector(value, what: str, dim: int, convert=_float_scalar) -> tuple:
    """parse_vector, with MclabError unless there are `dim` entries."""
    out = parse_vector(value, what, convert)
    if len(out) != dim:
        raise MclabError(f"{what} has {len(out)} entries in a {dim}-dimensional space")
    return out


def _required(obj: dict, key: str):
    """obj[key]; a key the spec leaves out raises MclabError naming it."""
    if key not in obj:
        raise MclabError(f"missing key {key!r}")
    return obj[key]


def _mapping_only_from_json(obj: dict, dim: int) -> Mapping:
    """The mapping of a JSON spec, acting on R^dim."""
    if not isinstance(obj, dict):
        raise MclabError(f"a mapping must be a JSON object, not {obj!r}")
    kind = obj.get("kind")
    params = obj.get("parameters", {})
    if not isinstance(params, dict):
        raise MclabError(f"parameters must be a JSON object, not {params!r}")
    if kind == "affine":
        matrix = _sized_vector(
            _required(params, "matrix"),
            "matrix",
            dim,
            lambda row: _sized_vector(row, "matrix row", dim),
        )
        offset = _sized_vector(_required(params, "offset"), "offset", dim)
        return Affine(matrix, offset)
    if kind == "rotation":
        if dim != 2:
            raise MclabError(f"a rotation needs a 2-dimensional space, not {dim}")
        if ("turns" in params) == ("angle" in params):
            raise MclabError("a rotation needs exactly one of turns and angle")
        if "turns" in params:
            turns = in_float_range(Fraction(str(parse_scalar(params["turns"]))), "turns")
            angle = in_float_range(2 * math.pi * float(turns), "the angle of turns")
        else:
            angle = parse_float(params["angle"])
        center = _sized_vector(params.get("center", (0.0, 0.0)), "center", 2, parse_float)
        return Rotation(angle, center)
    if kind == "box_projection":
        lower = _sized_vector(_required(params, "lower"), "lower", dim)
        upper = _sized_vector(_required(params, "upper"), "upper", dim)
        return BoxProjection(lower, upper)
    if kind == "composition":
        return Composition(
            parse_vector(
                _required(params, "maps"), "maps", lambda m: _mapping_only_from_json(m, dim)
            )
        )
    raise MclabError(f"unknown mapping kind {kind!r}")


def _domain_from_json(obj, space: MetricSpace) -> Domain:
    """The domain of a JSON spec; refused where some axis is wider than the
    float range, since sampling draws lo + (hi - lo) * u on every axis."""
    if obj is None:
        return WholeSpace(space.dim)
    if not isinstance(obj, dict):
        raise MclabError(f"a domain must be a JSON object, not {obj!r}")
    repr_tag = obj.get("repr")
    if repr_tag == "ball":
        domain = MetricBall(
            space,
            parse_vector(_required(obj, "center"), "center", parse_float),
            parse_float(_required(obj, "radius")),
        )
    elif repr_tag == "box":
        lower = parse_vector(_required(obj, "lower"), "lower", _float_scalar)
        upper = parse_vector(_required(obj, "upper"), "upper", _float_scalar)
        for bound in (lower, upper):
            check_point(space, bound)
        domain = Box(lower, upper)
    elif repr_tag == "all":
        domain = WholeSpace(space.dim, parse_float(obj.get("radius", 8.0)))
    else:
        raise MclabError(f"unknown domain representation {repr_tag!r}")
    for lo, hi in zip(domain.lower, domain.upper):
        in_float_range(hi - lo, "the width of a domain axis")
    return domain
