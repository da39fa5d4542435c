"""Seeded operation schedules, known answers and independent re-checks.

Every operation is one argv list for ``mclab.cli.main``.  Its expected
result comes from the table below or from the generator's construction,
never from mclab itself, and the re-checks use this file's own few-line
d_1, d_inf and d_p instead of ``mclab.spaces``.

A workload runs in rounds.  Round ``r`` of workload seed ``s`` is a fixed
list of operation kinds with inputs drawn from ``random.Random`` seeded by
the string ``"<workload>:<s>:<r>"``, so the same seed always yields the
same inputs, and no input is ever dropped for tripping a known defect.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

PROPS = ("menger", "A", "B", "Bprime", "Bdoubleprime", "C")

# Expected verdict per (metric family, property), with the reason the
# paper's claims give for it.
KNOWN_OUTCOMES = {
    "d1": {
        "menger": ("holds", "a point at the split of a coordinate staircase lies on both spheres"),
        "A": ("fails", "d_1 two-ball intersections contain distinct points (the l1-aij certificate)"),
        "B": ("refused", "without unique midpoints the single-valued midpoint map is undefined"),
        "Bprime": ("fails", "d_1 midpoint sets do not contract in Hausdorff distance with factor t"),
        "Bdoubleprime": ("fails", "the set-lifted d_1 union inherits the failure of (B')"),
        "C": ("holds", "d_1 midpoint sets of segment members stay inside the coordinate box of x and y"),
    },
    "dinf": {
        "menger": ("holds", "the sup-metric midpoint box is nonempty and lies on both spheres"),
        "A": ("fails", "d_inf midpoint sets are boxes with more than one point (the linf-box certificate)"),
        "B": ("refused", "without unique midpoints the single-valued midpoint map is undefined"),
        "Bprime": ("fails", "d_inf midpoint boxes do not contract in Hausdorff distance with factor t"),
        "Bdoubleprime": ("fails", "the set-lifted d_inf union inherits the failure of (B')"),
        "C": ("fails", "midpoints of segment members can leave the d_inf segment (Linf-hp, ex1-betweenness)"),
    },
    "d2": {
        prop: ("holds", "d_2 is strictly convex: every midpoint set is the single chord point")
        for prop in PROPS
    },
}


def _p_of(space_id: str):
    """p of a vector space id such as vec3-p1-exact or vec6-pinf."""
    tag = space_id.split("-")[1][1:]
    return math.inf if tag == "inf" else float(tag)


def metric_family(space_id: str) -> str:
    return {1: "d1", math.inf: "dinf", 2: "d2"}[_p_of(space_id)]


# --------------------------------------------------------------------------
# the benchmark's own metrics


def dist_p(a, b, p) -> float | Fraction:
    """d_p(a, b); exact for rational inputs when p is 1 or inf."""
    diffs = [abs(x - y) for x, y in zip(a, b)]
    if p == math.inf:
        return max(diffs)
    if p == 1:
        return sum(diffs)
    return math.fsum(float(d) ** p for d in diffs) ** (1.0 / p)


def _scalar(v):
    """Report scalars are ints, floats or 'num/den' strings."""
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, int):
        return Fraction(v)
    return v


def _close(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(a)), abs(float(b)))


# --------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One call of ``mclab.cli.main``: argv, the report it writes and how to
    judge that report."""

    kind: str  # check | reproduce | nested | fixedpoint
    label: str
    argv: list
    report: str  # file name of the JSON report under the out directory
    expect: dict = field(default_factory=dict)


def _check_op(w: "Workload", space: str, prop: str, seed: int) -> Op:
    outcome = KNOWN_OUTCOMES[metric_family(space)][prop][0]
    argv = [
        "check", "--space", space, "--props", prop,
        "--expect", f"{prop}={outcome}",
        "--seed", str(seed), "--out", w.out,
        "--config", w.config_for(SAMPLE_COUNT_FOR.get((space, prop), SAMPLE_COUNT[w.name])),
    ]
    return Op("check", f"check {space} {prop} seed={seed}", argv,
              f"check-{space}.json", {"space": space, "prop": prop, "outcome": outcome})


FIXTURE_NAMES = ("linf-box", "l1-aij", "ex1-betweenness", "L1-ha", "Linf-hp")


def _reproduce_op(w: "Workload", name: str) -> Op:
    argv = ["reproduce", name, "--out", w.out, "--config", w.config]
    return Op("reproduce", f"reproduce {name}", argv, f"reproduce-{name}.json")


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# Sample counts keep one round short enough that a run holds several rounds,
# so every operation kind is drawn many times per run.
SAMPLE_COUNT = {"taxicab": 40, "box-hausdorff": 200, "solvers": 50}
SAMPLE_COUNT_FOR = {
    # A check stops at its first counterexample.  Over 1000 seeds the first C
    # counterexample on vec6-pinf took up to 1459 checks (none needed more
    # than 4000); every other known "fails" here was found within 80 checks.
    ("vec6-pinf", "C"): 4000,
    # Box enumeration (3^6 points per midpoint set) then costs about as much
    # as Bdoubleprime on vec3-pinf-exact (0.6 s), and its spread is narrow,
    # so op_tail_ms is read inside it rather than in the wide spread of
    # that Bdoubleprime, whose cost follows the set sizes it draws.
    ("vec6-pinf", "menger"): 300,
}

# Wall seconds budgeted per round: a run of --seconds S does round(S / this)
# rounds whatever the host's speed (measured on 2 shared cores: 3.2-4.5 s,
# 1.6-2.0 s and 0.8-1.3 s per round).  At S = 30 that is 10, 16 and 30
# rounds.  op_tail_ms is the 11th-slowest operation, so each of the two
# costliest kinds comes at least 10 times: the 11th-slowest then falls
# inside their spread and never on the step down to the next kind.
ROUND_SECONDS = {"taxicab": 3.0, "box-hausdorff": 1.875, "solvers": 1.0}

TAXICAB_SPACES = ("vec3-p1-exact", "vec3-p1", "vec6-p1")
BOX_SPACES = ("vec6-pinf", "vec3-pinf-exact", "vec3-p2")
# One vec6-pinf Bdoubleprime operation costs 0.2 s to 40 s depending on the
# drawn set sizes (3^6 box points per member), longer than a whole run, so
# box-hausdorff runs the lifted-union Hausdorff path on the 3-D spaces only.
BOX_SKIP = {("vec6-pinf", "Bdoubleprime")}

NESTED_PS = ("2", "1.5", "1", "inf")
NESTED_PER_P = 25
FIXEDPOINT_DOMAINS = ("ball", "box", "all")
FIXEDPOINT_PER_DOMAIN = 2
NESTED_SLACK = 1e-3
FP_TOL = 1e-6  # RunConfig.fp_tol default, the tolerance every solver answer must meet


class Workload:
    """Operation schedule of one workload for one seed."""

    def __init__(self, name: str, seed: int, tmp: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.out = os.path.join(tmp, "reports")
        self.inputs = os.path.join(tmp, "inputs")
        os.makedirs(self.out, exist_ok=True)
        os.makedirs(self.inputs, exist_ok=True)
        self.tmp = tmp
        self.config = self.config_for(SAMPLE_COUNT[name])

    def config_for(self, sample_count: int) -> str:
        path = os.path.join(self.tmp, f"config-{sample_count}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"sample_count": sample_count}, fh)
        return path

    def round_ops(self, r: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        return WORKLOADS[self.name](self, rng, r)


def _taxicab(w: Workload, rng: random.Random, r: int) -> list:
    ops = [
        _check_op(w, space, prop, _op_seed(rng))
        for space in TAXICAB_SPACES
        for prop in PROPS
    ]
    ops += [_reproduce_op(w, name) for name in FIXTURE_NAMES]
    return ops


def _box_hausdorff(w: Workload, rng: random.Random, r: int) -> list:
    return [
        _check_op(w, space, prop, _op_seed(rng))
        for space in BOX_SPACES
        for prop in PROPS
        if (space, prop) not in BOX_SKIP
    ]


def _solvers(w: Workload, rng: random.Random, r: int) -> list:
    ops = []
    for i in range(NESTED_PER_P):
        for ptag in NESTED_PS:
            ops.append(_nested_op(w, rng, r, i, ptag))
    for i in range(FIXEDPOINT_PER_DOMAIN):
        for dom in FIXEDPOINT_DOMAINS:
            ops.append(_fixedpoint_op(w, rng, r, i, dom))
    return ops


WORKLOADS = {"taxicab": _taxicab, "box-hausdorff": _box_hausdorff, "solvers": _solvers}


def _write_input(w: Workload, name: str, data) -> str:
    path = os.path.join(w.inputs, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _nested_op(w: Workload, rng: random.Random, r: int, i: int, ptag: str) -> Op:
    """Four 3-D balls around random centers that all contain a constructed
    point q with slack NESTED_SLACK, so the family is feasible."""
    p = math.inf if ptag == "inf" else float(ptag)
    q = [rng.uniform(-2, 2) for _ in range(3)]
    balls = []
    for _ in range(4):
        c = [rng.uniform(-2, 2) for _ in range(3)]
        balls.append({"center": c, "radius": dist_p(c, q, p) + NESTED_SLACK})
    path = _write_input(w, f"family-{r}-{ptag}-{i}.json", [balls])
    space = f"vec3-p{ptag}"
    argv = ["nested", path, "--space", space, "--out", w.out, "--config", w.config]
    return Op("nested", f"nested {space} round={r} #{i}", argv, "nested.json",
              {"p": p, "balls": balls})


def _fixedpoint_op(w: Workload, rng: random.Random, r: int, i: int, dom: str) -> Op:
    """T(x) = A x + b with A a signed permutation times a diagonal with
    entries in (0.1, 0.9): a contraction in every d_p whose fixed point
    x* = (I - A)^-1 b is chosen first, b = x* - A x*.

    Ball and box domains of radius R are centred within (1 - max|a|) R / 2
    of x* in the d_1 norm, hence in every d_p, so T maps the domain into
    itself and x* lies inside it; the 'all' domain's window is [-8, 8]^3 and
    x* lies in [-3, 3]^3.
    """
    n = 3
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1.0, 1.0)) for _ in range(n)]
    diag = [rng.uniform(0.1, 0.9) for _ in range(n)]
    A = [[0.0] * n for _ in range(n)]
    for row in range(n):
        A[row][perm[row]] = signs[row] * diag[perm[row]]
    xstar = [rng.uniform(-3, 3) for _ in range(n)]
    b = [xstar[row] - sum(A[row][c] * xstar[c] for c in range(n)) for row in range(n)]
    radius = 2.0
    offset = [rng.uniform(-1, 1) for _ in range(n)]
    norm1 = sum(abs(v) for v in offset) or 1.0
    shrink = (1 - max(diag)) * radius / 2 * rng.random() / norm1
    center = [x + v * shrink for x, v in zip(xstar, offset)]
    if dom == "ball":
        domain = {"repr": "ball", "center": center, "radius": radius}
    elif dom == "box":
        domain = {"repr": "box", "lower": [c - radius for c in center],
                  "upper": [c + radius for c in center]}
    else:
        domain = {"repr": "all", "radius": 8.0}
    spec = {
        "space": "vec3-p2", "kind": "affine",
        "parameters": {"matrix": A, "offset": b},
        "domain": domain, "alpha": 1, "beta": 0,
        "x0": center if dom != "all" else [0.0] * n,
    }
    path = _write_input(w, f"map-{r}-{dom}-{i}.json", spec)
    argv = ["fixedpoint", path, "--out", w.out, "--config", w.config]
    return Op("fixedpoint", f"fixedpoint {dom} round={r} #{i}", argv, "fixedpoint.json",
              {"xstar": xstar, "contraction": max(diag)})


# --------------------------------------------------------------------------
# judging one operation


def judge(op: Op, rc: int, report: dict | None) -> tuple[str | None, bool]:
    """(failure reason or None, whether the program claimed an answer).

    Two failures claim no answer: a solver that gives up without a solution,
    and a sampled check that finds no counterexample to a property known to
    fail.  Every other mismatch is a wrong answer.
    """
    if report is None:
        return "no JSON report written", True
    if op.kind == "check":
        return _judge_check(op, rc, report)
    if op.kind == "reproduce":
        if rc != 0 or report["report"]["ok"] is not True:
            return f"fixture did not reproduce (exit {rc})", True
        return None, True
    if op.kind == "nested":
        return _judge_nested(op, rc, report)
    return _judge_fixedpoint(op, rc, report)


def _judge_check(op: Op, rc: int, report: dict):
    entry = report["reports"][0]
    got, want = entry["outcome"], op.expect["outcome"]
    if got != want:
        # "holds" is sampled evidence, never a proof: a check that missed a
        # counterexample failed, but it did not claim a wrong answer
        return f"outcome {got}, known answer {want}", not (got == "holds" and want == "fails")
    if rc != 0:
        return f"exit {rc} although the outcome matched", True
    if op.expect["prop"] == "A" and want == "fails":
        return recheck_a_witness(op.expect["space"], entry), True
    return None, True


def recheck_a_witness(space_id: str, entry: dict) -> str | None:
    """An A certificate names two distinct points of the midpoint set: both
    at distance (1 - t) d(x, y) from x and t d(x, y) from y (the FROM_Y
    convention the CLI uses), at the distances the report states."""
    exact = space_id.endswith("-exact")
    p = _p_of(space_id)
    w = entry["witness"]
    x, y = [_scalar(c) for c in w["x"]], [_scalar(c) for c in w["y"]]
    p1, p2 = [_scalar(c) for c in w["point_1"]], [_scalar(c) for c in w["point_2"]]
    t = _scalar(w["t"])
    if not exact:
        x, y, p1, p2 = ([float(c) for c in v] for v in (x, y, p1, p2))
        t = float(t)
    if p1 == p2:
        return "A witness points coincide"
    d = dist_p(x, y, p)
    radii = ((1 - t) * d, t * d)
    checks = (
        (dist_p(p1, p2, p), w["distance"]),
        (dist_p(p1, x, p), w["distance_to_x_1"]),
        (dist_p(p2, x, p), w["distance_to_x_2"]),
        (dist_p(p1, y, p), w["distance_to_y_1"]),
        (dist_p(p2, y, p), w["distance_to_y_2"]),
    )
    for got, stated in checks:
        if not _close(got, _scalar(stated), exact):
            return f"A witness distance {got} differs from stated {stated}"
    for pt in (p1, p2):
        if not (_close(dist_p(pt, x, p), radii[0], exact)
                and _close(dist_p(pt, y, p), radii[1], exact)):
            return f"A witness point {pt} is off the spheres"
    return None


# Report floats carry 12 significant digits, so a point that meets a
# tolerance exactly may miss it by about 1e-12 after the round trip.
REPORT_ROUNDING = 1e-9


def _judge_nested(op: Op, rc: int, report: dict):
    if rc != 0 or "result" not in report:
        return f"no common point (exit {rc}): {report.get('error', '?')}", False
    z = [float(c) for c in report["result"]["point"]]
    p = op.expect["p"]
    worst = max(dist_p(z, b["center"], p) - b["radius"] for b in op.expect["balls"])
    if worst > FP_TOL + REPORT_ROUNDING:
        return f"common point violates a ball by {worst:.3g}", True
    return None, True


def _judge_fixedpoint(op: Op, rc: int, report: dict):
    result = report.get("result")
    if result is None:
        if "error" in report:
            return f"no fixed point (exit {rc}): {report['error']}", False
        return "hybrid inequality reported failing for a contraction", True
    if rc != 0 or not result["converged"]:
        return f"not converged (exit {rc}), residual {result['residual']}", False
    # |u - x*| = |(I - A)^-1 (u - Tu)| <= residual / (1 - |A|) in every d_p
    bound = FP_TOL / (1 - op.expect["contraction"]) + REPORT_ROUNDING
    gap = dist_p([float(c) for c in result["point"]], op.expect["xstar"], 2)
    if gap > bound:
        return f"fixed point {gap:.3g} from (I-A)^-1 b, bound {bound:.3g}", True
    return None, True
