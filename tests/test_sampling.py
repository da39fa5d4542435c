"""The float samplers draw what `random.Random.uniform` draws: the same
values and the same generator state after them, so that every seeded plan,
verdict and fixed-point search replays as before."""
from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from mclab import Box, MetricBall, SamplePlan, WholeSpace, vector_space
from mclab.fixedpoint import DOMAIN_TOL, _sample_domain_point
from mclab.sampling import HIGH, LOW, MAX_SET_SIZE, sample_finite_points, sample_point

SEEDS = [1, 2, 7, 20240601]


def _uniform_domain_point(rng, domain):
    """Rejection sampling with `rng.uniform` per coordinate."""
    for _ in range(10_000):
        z = tuple(rng.uniform(lo, hi) for lo, hi in zip(domain.lower, domain.upper))
        if domain.contains(z, DOMAIN_TOL):
            return z
    raise AssertionError("no domain point")


def _same_draws(draw, reference, seed, count=25):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(count):
        got, want = draw(rng), reference(ref)
        assert [c.hex() for c in got] == [c.hex() for c in want]
        assert all(type(c) is float for c in got)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 6])
@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_a_float_sample_point_is_a_tuple_of_uniforms(seed, dim, p):
    space, plan = vector_space(dim, p), SamplePlan()
    _same_draws(
        lambda rng: sample_point(rng, space, plan),
        lambda rng: tuple(rng.uniform(LOW, HIGH) for _ in range(dim)),
        seed,
    )


def _domains(dim):
    space = vector_space(dim, 2)
    yield WholeSpace(dim, 8.0)
    yield Box(tuple(-1.5 + i for i in range(dim)), tuple(2.25 + i for i in range(dim)))
    yield Box((F(-1, 3),) * dim, (F(5, 7),) * dim)
    # rejection sampling: the ball fills a part of its box
    yield MetricBall(space, tuple(0.5 * i for i in range(dim)), 1.25)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_a_domain_point_is_drawn_as_uniforms_until_one_lies_inside(seed, dim):
    for domain in _domains(dim):
        _same_draws(
            lambda rng: _sample_domain_point(rng, domain),
            lambda rng: _uniform_domain_point(rng, domain),
            seed,
        )


def _same_finite_points(space, seed):
    """`sample_finite_points` gives the points, in value and type, and the
    generator state that per-point `sample_point` draws give."""
    plan = SamplePlan()
    rng, ref = random.Random(seed), random.Random(seed)

    def bits(points):
        return [[(type(c), c.hex() if isinstance(c, float) else c) for c in q] for q in points]

    for _ in range(25):
        got = sample_finite_points(rng, space, plan)
        size = ref.randint(1, MAX_SET_SIZE)
        want = tuple(dict.fromkeys(sample_point(ref, space, plan) for _ in range(size)))
        assert bits(got) == bits(want)
        assert all(type(q) is tuple for q in got)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", range(1, 11))
def test_float_finite_points_are_sample_points_drawn_one_by_one(seed, dim):
    # one pass of uniforms cut into points: the same generator calls
    _same_finite_points(vector_space(dim, 2), seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", range(1, 11))
@pytest.mark.parametrize("p", [1, math.inf])
def test_exact_finite_points_are_sample_points_drawn_one_by_one(seed, dim, p):
    _same_finite_points(vector_space(dim, p, exact=True), seed)
