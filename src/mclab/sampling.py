"""Seeded, reproducible sample plans for the property checkers.

Exact-mode samples are drawn from a rational lattice (numerators over a
fixed denominator) so that every downstream quantity stays rational; float
samples are plain uniforms.  A plan fully describes itself so verdicts can
embed the information needed to replay a run.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import MclabError
from .spaces import MetricSpace, VECTOR


LOW, HIGH = -2, 2  # every sampled coordinate lies in [LOW, HIGH]
MAX_SET_SIZE = 8  # a sampled finite set has 1 to MAX_SET_SIZE points


@dataclass(frozen=True)
class SamplePlan:
    count: int = 1000
    seed: int = 20240601
    coord_denominator: int = 16
    t_denominator: int = 16
    t_values: tuple | None = None
    anchor_x: tuple | None = None
    anchor_y: tuple | None = None

    def __post_init__(self):
        # with no samples every checker would hold on no evidence
        if self.count < 1:
            raise MclabError(f"a sample plan needs count >= 1, not {self.count}")
        # the exact sampler draws k/coord_denominator and k/t_denominator in (0, 1)
        if self.coord_denominator < 1 or self.t_denominator < 2:
            raise MclabError(
                "a sample plan needs coord_denominator >= 1 and t_denominator >= 2, "
                f"not {self.coord_denominator} and {self.t_denominator}"
            )
        if self.t_values is not None and not self.t_values:
            raise MclabError("a sample plan's t_values, when set, needs a value")
        # the pair draw takes the anchors as its pair only when both are set
        if (self.anchor_x is None) != (self.anchor_y is None):
            raise MclabError("a sample plan sets anchor_x and anchor_y together")

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def describe(self) -> dict:
        out = {
            "count": self.count,
            "seed": self.seed,
            "low": LOW,
            "high": HIGH,
            "coord_denominator": self.coord_denominator,
            "t_denominator": self.t_denominator,
        }
        if self.t_values is not None:
            out["t_values"] = list(self.t_values)
        if self.anchor_x is not None:
            out["anchor_x"] = list(self.anchor_x)
        if self.anchor_y is not None:
            out["anchor_y"] = list(self.anchor_y)
        return out


def sample_point(rng: random.Random, space: MetricSpace, plan: SamplePlan):
    assert space.carrier == VECTOR
    if space.exact:
        den = plan.coord_denominator
        return tuple(
            Fraction(rng.randint(LOW * den, HIGH * den), den) for _ in range(space.dim)
        )
    # `rng.uniform(LOW, HIGH)` as CPython defines it, with `random` bound once
    random = rng.random
    return tuple([LOW + (HIGH - LOW) * random() for _ in range(space.dim)])


def sample_distinct_pair(rng: random.Random, space: MetricSpace, plan: SamplePlan):
    """The plan's anchors if it sets them, else two distinct sampled points."""
    if plan.anchor_x is not None:
        return tuple(plan.anchor_x), tuple(plan.anchor_y)
    x = sample_point(rng, space, plan)
    y = sample_point(rng, space, plan)
    while y == x:
        y = sample_point(rng, space, plan)
    return x, y


def sample_t(rng: random.Random, space: MetricSpace, plan: SamplePlan, index: int = 0):
    """A parameter in (0, 1); rational in exact mode."""
    if plan.t_values:
        return plan.t_values[index % len(plan.t_values)]
    if space.exact:
        den = plan.t_denominator
        return Fraction(rng.randint(1, den - 1), den)
    return rng.uniform(0.02, 0.98)


def sample_finite_points(rng: random.Random, space: MetricSpace, plan: SamplePlan):
    """1 to MAX_SET_SIZE distinct points, as `sample_point` draws them one
    by one.  On a float space the `size * dim` uniforms are drawn in one
    pass and cut into points: the same calls of `rng.random` in the same
    order."""
    size = rng.randint(1, MAX_SET_SIZE)
    if space.exact:
        points = [sample_point(rng, space, plan) for _ in range(size)]
    else:
        assert space.carrier == VECTOR
        random = rng.random
        coords = iter([LOW + (HIGH - LOW) * random() for _ in range(size * space.dim)])
        points = zip(*[coords] * space.dim)
    # duplicates are harmless for sets; drop them for cleanliness
    return tuple(dict.fromkeys(points))
