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
and the witness are those of the full scan.  Boxes under the sup metric are
compared per coordinate as interval Hausdorff distances.  Two finite sets
share one `distance_table`, which checks each point once and transposes
each axis once: its row minima give the distance from A to B, its column
minima the distance from B to A.  Exactness comes from the space: a result
is marked exact on an exact space when A's sample points attain the
supremum, that is A finite, or A a capped simplex (whose vertices are its
sample points) and B convex.  Witness pairs are always returned; ties
break to the lexicographically smallest witness so results are
deterministic.
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
from .spaces import MetricSpace, check_point, distance, distance_table, distances


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
        raise MclabError(f"no nearest-point form for a {B.kind} representation")
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
    takes every part."""
    best = None
    for a in points:
        row = None
        for part in parts:
            near = _nearest(space, a, part)
            if row is None or near < row:
                row = near
            if best is not None and row[0] < best:
                break
        else:
            if best is None or row[0] > best:
                best = row[0]
            yield (a, *row)


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


def _finite_pair(space, A, B):
    """Both directed distances between finite sets from one
    `distance_table` of A against B: its row minima give A -> B, its column
    minima B -> A (d(a, b) and d(b, a) are bit-equal), each ties broken as
    `_directed_points` breaks them."""
    pts_a, pts_b = _rep_points(A), _rep_points(B)
    table = distance_table(space, pts_a, pts_b)
    forward = _directed_points(
        (a, *min(zip(row, pts_b))) for a, row in zip(pts_a, table)
    )
    backward = _directed_points(
        (b, *min(zip(column, pts_a))) for b, column in zip(pts_b, zip(*table))
    )
    return (
        HausdorffResult(*forward, space.exact),
        HausdorffResult(*backward, space.exact),
    )


def hausdorff(space: MetricSpace, A: SetRep, B: SetRep) -> HausdorffResult:
    """max of the two directed distances; witness from the deciding direction."""
    if isinstance(A, _FINITE) and isinstance(B, _FINITE):
        forward, backward = _finite_pair(space, A, B)
    else:
        forward = directed_hausdorff(space, A, B)
        backward = directed_hausdorff(space, B, A)
    if forward.value > backward.value:
        chosen = forward
    elif backward.value > forward.value:
        chosen = backward
    else:
        chosen = forward if forward.witness <= backward.witness else backward
    return HausdorffResult(
        chosen.value, chosen.witness, exact=forward.exact and backward.exact
    )
