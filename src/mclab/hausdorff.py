"""Hausdorff distance between set representations.

The directed distance from A to B is the maximum, over A's sample points, of
the distance to B.  That distance is exact: a finite B is searched in one
`distances` row, a singleton or box has a closed-form nearest point, and a
union takes the nearest over its parts.  A capped simplex has one under d_1
only, where it gives its distance with its nearest point, from the walk's
own coordinates; under any other metric it is refused.  Against a union, a
row stops at the first part that brings its running minimum strictly below
the largest row so far (the early break of Taha & Hanbury, IEEE TPAMI
37(11), 2015): such a row can neither exceed nor tie that row, so the value
and the witness are those of the full scan.  The parts are tried in
move-to-front order, the part that gave the previous row its nearest point
first, so a row meets a near part early and breaks sooner; order cannot
change the result, since a complete row is the least (distance, point)
over every part, equal pairs going to the part listed first, and a row
that can attain or tie the maximum never breaks.
Boxes under the sup metric are compared per coordinate as interval
Hausdorff distances.  `hausdorff` takes both directed results for every
pair, finite pairs included, and keeps the larger value, the smaller
witness on a tie; a result carries its witness.  The value alone comes
from `finite_hausdorff_value(space, points_a, points_b)`: where one
`distance_table` of the two point lists holds one number type (an exact
vector space, a strictly convex d_p, or d_1 and d_inf over float
coordinates), its row and column minima give the value with no set or
result built; elsewhere it is `hausdorff`'s value, whose witness order
picks the value's type where int, Fraction and float distances tie.
(B') and (B'') read their values there on a strictly convex space, and
(B'') its right side everywhere; (B') builds a witness only for a failing
trial.
Exactness comes from the space: a result is marked exact on an exact space
when A's sample points attain the supremum, that is A finite, or A a capped
simplex (whose vertices are its sample points) and B convex.  Witness pairs
are always returned; ties break to the lexicographically smallest witness so
results are deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Scalar
from .convexsets import (
    Box,
    CappedSimplex,
    FiniteSet,
    SetRep,
    SetUnion,
    Singleton,
)
from .errors import EmptySetError, MclabError
from .spaces import VECTOR, MetricSpace, check_point, distance, distance_table, distances


@dataclass(frozen=True)
class HausdorffResult:
    value: Scalar
    witness: tuple  # (point in A, nearest point of B)
    exact: bool


def _rep_points(rep: SetRep):
    pts = rep.sample_points()
    if not pts:
        raise EmptySetError("set representation produced no sample points")
    return pts


# convex representations whose nearest point has a closed form, a capped
# simplex under d_1 only
_CLOSED_FORM = (Singleton, Box, CappedSimplex)
_FINITE = (Singleton, FiniteSet)


def _nearest(space, a, B):
    """Distance from a to B and a point of B attaining it, ties broken to
    the smallest point."""
    if isinstance(B, SetUnion):
        return min(_nearest(space, a, part) for part in B.parts)
    if isinstance(B, FiniteSet):
        return min(zip(distances(space, a, B.points), B.points))
    # the walk of a capped simplex finds its d_1-nearest member, which under
    # another metric can be farther than the nearest one
    if not isinstance(B, _CLOSED_FORM) or (
        isinstance(B, CappedSimplex) and space.p != 1
    ):
        name = type(B).__name__
        raise MclabError(f"no nearest-point form for a {name} representation")
    if isinstance(B, CappedSimplex):
        value, b = B.nearest_with_distance(a)
        check_point(space, a)
        # a Fraction value is a sum of rational differences, so b is
        # rational; a float space checks only the dimension.  Any other
        # walk is measured as `distance` would measure it
        if len(b) == space.dim and (isinstance(value, Fraction) or not space.exact):
            return value, b
        return distance(space, a, b), b
    b = B.nearest(a)
    return distance(space, a, b), b


def _rows(space, points, parts):
    """The rows (a, distance from a to B, nearest point of B), for B the
    union of `parts`, over the points a that can decide the directed
    distance.  A row stops at the first part that brings its running
    minimum strictly below the largest row so far: it can then neither
    exceed nor tie that row, so `_directed_points`, which does not depend on
    row order, gives the same value and witness without it.  The first row
    takes every part.  Parts are tried in move-to-front order, the part
    that gave the previous row its nearest point first: a complete row is
    the least (distance, point) over every part, equal ones, which can
    differ in type or in the sign of a zero, going to the part first in
    `parts`, whatever the order they were tried in."""
    best = None
    order = list(enumerate(parts))
    for a in points:
        row = None
        for i, (index, part) in enumerate(order):
            near = _nearest(space, a, part)
            if row is None or near < row or (near == row and index < first):
                row, first, front = near, index, i
            if best is not None and row[0] < best:
                break
        else:
            if best is None or row[0] > best:
                best = row[0]
            yield (a, *row)
        if front:
            order.insert(0, order.pop(front))


def _directed_points(rows):
    """max over rows (a, distance from a to B, nearest point of B) of the
    distance; ties break to the smallest (a, b) witness."""
    best = None
    witness = None
    for a, nearest, nearest_pt in rows:
        if (
            best is None
            or nearest > best
            or (nearest == best and (a, nearest_pt) < witness)
        ):
            best = nearest
            witness = (a, nearest_pt)
    return best, witness


def _directed_boxes(A: Box, B: Box):
    """Directed Hausdorff between boxes under the sup metric: the largest
    distance from an end of one of A's intervals to B's interval on the same
    axis; ties keep the first axis and the lower end.  The witness in A takes
    that end on its axis and the clamp of B.lower into A on every other axis
    (A's own bound on a tie), whose distance to B is no larger."""
    best, best_axis, best_end = 0, 0, A.lower[0]
    bounds = list(zip(A.lower, A.upper, B.lower, B.upper))
    for i, (alo, ahi, blo, bhi) in enumerate(bounds):
        for a in (alo, ahi):
            gap = max(blo - a, a - bhi, 0)
            if gap > best:
                best, best_axis, best_end = gap, i, a
    a_pt = [min(max(alo, blo), ahi) for alo, ahi, blo, _ in bounds]
    a_pt[best_axis] = best_end
    return best, (tuple(a_pt), B.nearest(a_pt))


def directed_hausdorff(space: MetricSpace, A: SetRep, B: SetRep) -> HausdorffResult:
    """sup over A of the distance to B."""
    if isinstance(A, Box) and isinstance(B, Box) and space.p == math.inf:
        value, witness = _directed_boxes(A, B)
        return HausdorffResult(value, witness, exact=space.exact)
    parts = B.parts if isinstance(B, SetUnion) else (B,)
    value, witness = _directed_points(_rows(space, _rep_points(A), parts))
    # d(., B) is convex for a convex B, so over a capped simplex its
    # supremum sits at a vertex; a finite A is all its points
    exact = space.exact and (
        isinstance(A, _FINITE)
        or (isinstance(A, CappedSimplex) and isinstance(B, _CLOSED_FORM))
    )
    return HausdorffResult(value, witness, exact=exact)


def _table_gives_value(space, points_a, points_b) -> bool:
    """Whether a `distance_table` of the two point lists holds one number
    type, so that equal values have equal bits: Fractions on an exact
    vector space, floats under a strictly convex d_p, and floats under d_1
    and d_inf when every coordinate is a float (`abs` never returns -0.0).
    A function space's points are no coordinate lists, and an exact one's
    table mixes int 0 with Fractions."""
    if space.carrier != VECTOR:
        return False
    if space.unique_midpoints or space.exact:
        return True
    return all(type(c) is float for q in (*points_a, *points_b) for c in q)


def finite_hausdorff_value(space: MetricSpace, points_a, points_b) -> Scalar:
    """`hausdorff(space, FiniteSet(points_a), FiniteSet(points_b)).value`,
    equal in bits and in type.  Where one `distance_table` holds one number
    type its row minima give A -> B and its column minima B -> A, taken
    with the builtin `min` and `max`, with no set or result built; a NaN
    direction, or a table that mixes types, takes `hausdorff`'s value,
    whose witness order picks the value's type.  For a caller, such as
    (B''), that reads only values."""
    if not points_a or not points_b:
        raise EmptySetError("finite set representation must be nonempty")
    if _table_gives_value(space, points_a, points_b):
        rows = distance_table(space, points_a, points_b)
        forward, backward = max(map(min, rows)), max(map(min, zip(*rows)))
        if forward >= backward:
            return forward
        if backward > forward:
            return backward
    return hausdorff(space, FiniteSet(tuple(points_a)), FiniteSet(tuple(points_b))).value


def hausdorff(space: MetricSpace, A: SetRep, B: SetRep) -> HausdorffResult:
    """max of the two directed distances, with that direction's witness; on
    a tie the smaller witness."""
    forward = directed_hausdorff(space, A, B)
    backward = directed_hausdorff(space, B, A)
    if backward.value > forward.value or (
        not forward.value > backward.value and backward.witness < forward.witness
    ):
        chosen = backward
    else:
        chosen = forward
    return HausdorffResult(chosen.value, chosen.witness, exact=forward.exact and backward.exact)
