"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction as F

from mclab import (
    Box,
    FIXTURES,
    MidConvention,
    SamplePlan,
    build_shrinking_family,
    cantor_point,
    check_diameter_strict,
    check_homogeneity,
    check_property,
    common_point,
    distance,
    estimate_uniform_modulus,
    find_fixed_point,
    make_asymptotic_functional,
    asymptotic_center,
    midpoint_set,
    unique_midpoint,
    vector_space,
    verify_hybrid,
    HybridParams,
    MappingSpec,
    MetricBall,
    Rotation,
)
from mclab.convexsets import diameter_with_witness
from mclab.nested import max_violation

FX = MidConvention.FROM_X
FY = MidConvention.FROM_Y


def _report(num: int, label: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_linf_box_fixture():
    start = time.perf_counter()
    space = vector_space(5, math.inf, exact=True)
    rep = midpoint_set(space, (0, 0, 0, 0, 0), (2, 0, 0, 0, 0), F(1, 4), FX)
    box_ok = rep.lower == (F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2)) and (
        rep.upper == (F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    )
    verdict = check_property(
        space,
        "A",
        conv=FX,
        plan=SamplePlan(
            count=1, anchor_x=(0, 0, 0, 0, 0), anchor_y=(2, 0, 0, 0, 0), t_values=(F(1, 4),)
        ),
    )
    w = verdict.witness
    witness_ok = (
        verdict.fails
        and w["point_1"] != w["point_2"]
        and distance(space, w["point_1"], w["point_2"]) == 1
    )
    elapsed = time.perf_counter() - start
    _report(1, "sup-metric box fixture, exact", box_ok and witness_ok and elapsed < 1.0)


def test_criterion_02_l1_aij_fixture():
    start = time.perf_counter()
    report = FIXTURES["l1-aij"]()
    on_spheres = [
        c for c in report.claims if "at distance 1 from" in c.label
    ]
    ok = (
        report.ok
        and len(on_spheres) == 24  # twelve points, two spheres each
        and all(c.lhs == 1 for c in on_spheres)
    )
    elapsed = time.perf_counter() - start
    _report(2, "taxicab twelve-witness fixture, exact", ok and elapsed < 1.0)


def test_criterion_03_ex1_betweenness_fixture():
    report = FIXTURES["ex1-betweenness"]()
    by_label = {c.label: c for c in report.claims}
    ok = (
        report.ok
        and by_label["sum of distances via the deeper midpoint"].lhs == 2
        and by_label["direct distance"].lhs == F(3, 2)
    )
    _report(3, "betweenness counterexample: 2 versus 3/2, exact", ok)


def test_criterion_04_l1_ha_fixture():
    report = FIXTURES["L1-ha"]()
    by_label = {c.label: c for c in report.claims}
    ok = report.ok and by_label["distance between the constants"].lhs == 2
    for a in ("1/4", "1/2", "3/4"):
        ok = ok and by_label[f"tent at a={a}: distance to 0"].lhs == 1
        ok = ok and by_label[f"tent at a={a}: distance to 2"].lhs == 1
    _report(4, "piecewise-linear integral fixture, exact", ok)


def test_criterion_05_property_a_positive():
    space = vector_space(3, 2)
    rng = random.Random(501)
    ok = True
    for _ in range(1000):
        x = tuple(rng.uniform(-2, 2) for _ in range(3))
        y = tuple(rng.uniform(-2, 2) for _ in range(3))
        if x == y:
            continue
        t = rng.uniform(0.02, 0.98)
        rep = midpoint_set(space, x, y, t)
        ok = ok and diameter_with_witness(space, rep)[0] <= 1e-6
        m = unique_midpoint(space, x, y, t)
        d = distance(space, x, y)
        ok = ok and abs(distance(space, x, m) - (1 - t) * d) <= 1e-9
        ok = ok and abs(distance(space, y, m) - t * d) <= 1e-9
    _report(5, "unique midpoints on the Euclidean space", ok)


def test_criterion_06_property_b_ratio():
    ok = True
    equality_on_d2 = False
    for p in (1.5, 2, 3):
        space = vector_space(3, p)
        rng = random.Random(601)
        for _ in range(1000):
            x = tuple(rng.uniform(-2, 2) for _ in range(3))
            y = tuple(rng.uniform(-2, 2) for _ in range(3))
            z = tuple(rng.uniform(-2, 2) for _ in range(3))
            if x == y or z == y or x == z:
                continue
            t = rng.uniform(0.02, 0.98)
            ratio = distance(
                space, unique_midpoint(space, x, y, t), unique_midpoint(space, z, y, t)
            ) / distance(space, x, z)
            ok = ok and ratio <= t + 1e-9
            if p == 2 and abs(ratio - t) <= 1e-6:
                equality_on_d2 = True
    _report(6, "first-argument contraction with factor t", ok and equality_on_d2)


def test_criterion_07_bprime_convention_report():
    space = vector_space(2, 2)
    holds = check_property(space, "Bprime", conv=FY, plan=SamplePlan(count=1000, seed=701))
    fails = check_property(space, "Bprime", conv=FX, plan=SamplePlan(count=1000, seed=701))
    ok = holds.holds and holds.max_slack <= 1e-9
    w = fails.witness
    ok = ok and fails.fails and w["t"] < 0.5 and abs(w["ratio"] - (1 - w["t"])) <= 1e-6
    _report(7, "set-contraction conventions: one holds, one fails", ok)


def test_criterion_08_bdoubleprime():
    space = vector_space(2, 2)
    verdict = check_property(
        space,
        "Bdoubleprime",
        conv=FY,
        plan=SamplePlan(count=1000, seed=801),
        tol=1e-9,
    )
    _report(8, "lifted-union contraction on finite sets", verdict.holds)


def test_criterion_09_uniform_modulus():
    space = vector_space(2, 2)
    got = estimate_uniform_modulus(space, [0.5, 1.0, 1.5])
    ok = all(
        abs(delta - (1 - math.sqrt(1 - eps * eps / 4))) <= 1e-3 for eps, delta in got
    )
    _report(9, "uniform-convexity modulus against the closed form", ok)


def test_criterion_10_rotation_fixed_point():
    start = time.perf_counter()
    space = vector_space(2, 2)
    spec = MappingSpec(Rotation(2 * math.pi / 7), MetricBall(space, (0.0, 0.0), 1.0))
    hybrid = verify_hybrid(space, spec, HybridParams(1, 0), SamplePlan(count=1000, seed=1001))
    result = find_fixed_point(space, spec, (1.0, 0.0))
    # grid oracle for the functional value at the minimiser
    Ffn = make_asymptotic_functional(space, spec, (1.0, 0.0))
    grid_best = min(
        asymptotic_center(space, Ffn, (-1 + i / 25, -1 + j / 25))
        for i in range(51)
        for j in range(51)
    )
    elapsed = time.perf_counter() - start
    ok = (
        hybrid.holds
        and distance(space, result.point, (0.0, 0.0)) <= 1e-3
        and result.residual <= 1e-6
        and abs(result.f_value - 0.5) <= 1e-3
        and abs(grid_best - 0.5) <= 1e-3
        and elapsed < 10.0
    )
    _report(10, "seventh-turn rotation fixed point", ok)


def test_criterion_11_semigroup():
    space = vector_space(2, 2)
    y = (0.25, -0.5)
    # the unique-midpoint maps toward y compose by multiplying their
    # parameters: m_{1/3}(m_{1/2}(x)) = m_{1/6}(x) within 1e-12 pointwise
    rng = random.Random(1102)
    ok = True
    for _ in range(1000):
        xpt = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        composed = unique_midpoint(space, unique_midpoint(space, xpt, y, 1 / 2), y, 1 / 3)
        direct = unique_midpoint(space, xpt, y, 1 / 6)
        ok = ok and distance(space, composed, direct) <= 1e-12
    # so by (B) at t = 1/6 the composition contracts with factor exactly 1/6
    contraction = check_property(
        space, "B", plan=SamplePlan(count=1000, seed=1101, t_values=(1 / 6,))
    )
    ok = ok and contraction.holds and contraction.witness["equality_attained"]
    _report(11, "midpoint-map semigroup contraction", ok)


def test_criterion_12_nested_intersection():
    space = vector_space(2, 2)
    drifting = build_shrinking_family(
        space,
        [(0.5**n, 0.0) for n in range(1, 51)],
        [1 + 0.5**n for n in range(1, 51)],
    )
    pt = common_point(space, drifting, tol=1e-6)
    violation, _ = max_violation(space, drifting, pt)
    ok = violation <= 1e-6

    c = (0.25, -0.3)
    cantor = build_shrinking_family(space, [c] * 50, [0.5**n for n in range(1, 51)])
    pt2 = cantor_point(space, cantor, tol=1e-6)
    ok = ok and distance(space, pt2, c) <= 1e-6
    _report(12, "fifty-ball families: drifting and vanishing", ok)


def test_criterion_13_homogeneity():
    ok = True
    for p in (1, 1.5, 2, 3, math.inf):
        space = vector_space(2, p)
        verdict = check_homogeneity(space, SamplePlan(count=1000, seed=1301), tol=1e-12)
        ok = ok and verdict.holds
    bounded = check_homogeneity(
        vector_space(2, 2), SamplePlan(count=1000, seed=1301), cap=1
    )
    ok = ok and bounded.fails and bounded.witness is not None
    _report(13, "metric scaling identity and its bounded-metric failure", ok)


def test_criterion_14_diameter_strictness():
    space = vector_space(2, math.inf, exact=True)
    A = Box((0, 0), (2, 2))
    C = Box((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2)))
    verdict = check_diameter_strict(space, A, C)
    ok = verdict.holds and verdict.witness["k_hat"] == F(1, 2)
    _report(14, "strict diameter drop inside an interior", ok)
