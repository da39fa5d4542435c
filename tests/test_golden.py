"""Golden report bytes.

Each case runs one CLI command into a temporary directory and compares the
JSON report it writes, byte for byte, with the committed copy under
`tests/golden/`.  A change that is meant to keep evidence unchanged (a faster
enumeration, a refactor) must pass this test untouched.  A change that is
meant to alter reports regenerates the files and says why:

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

which rewrites the named cases, or every case when none is named, so that a
new case can be added without rewriting the others.
"""
from __future__ import annotations

import ast
import importlib
import json
import os
import sys
from pathlib import Path

import pytest

import mclab
import mclab.cli as cli
from mclab import FIXTURES
from mclab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 7
SAMPLE_COUNT = 20

# known outcomes per metric family (paper, properties (A)-(C))
_L1 = "A=fails,B=refused,Bprime=fails,Bdoubleprime=fails"
CHECK_EXPECT = {
    "vec3-p1-exact": _L1,
    "vec3-p1": _L1,
    "vec3-pinf-exact": _L1 + ",C=fails",
    "vec3-p2": "",
    "vec6-pinf": _L1 + ",C=fails",
    "vec6-p1": _L1,
    "vec8-p1-exact": _L1,
    "vec1-p2": "",
}

# property lists for the cases that run more than the default suite; the
# vec1-p2 homogeneity verdict holds with an int 0 worst slack
CHECK_PROPS = {"vec1-p2": "menger,A,B,Bprime,Bdoubleprime,C,homogeneity"}

# solver inputs: the README rotation on a ball, a box projection (the
# (2, 1) nonspreading case) on a box, a halving affine map on the whole
# space, one 3-D affine contraction per float distance branch (d_1, d_inf
# and a general p), a 3-D signed-permutation contraction whose float orbit
# ends in a 2-cycle, a composition, a map whose hybrid inequality
# overflows, a feasible family of nested balls, a vanishing-diameter
# family run with --cantor, and a family whose search stalls
# column sums (the d_1 operator norm) and row sums (the d_inf one) are at
# most 3/4, so the map contracts in every d_p
_CONTRACTION = [[0.25, 0.25, 0], [0, 0.5, 0.25], [0.25, 0, 0.25]]

INPUTS = {
    "fixedpoint-ball": {
        "space": "vec2-p2",
        "kind": "rotation",
        "parameters": {"turns": "1/7", "center": [0, 0]},
        "domain": {"repr": "ball", "center": [0, 0], "radius": 1},
        "alpha": 1,
        "beta": 0,
        "x0": [1, 0],
    },
    "fixedpoint-box": {
        "space": "vec2-p2",
        "kind": "box_projection",
        "parameters": {"lower": [0, 0], "upper": [1, 1]},
        "domain": {"repr": "box", "lower": [-3, -3], "upper": [3, 3]},
        "alpha": 2,
        "beta": 1,
        "x0": [2.5, -1.5],
    },
    "fixedpoint-all": {
        "space": "vec2-p2",
        "kind": "affine",
        "parameters": {"matrix": [[0.5, 0], [0, 0.5]], "offset": [0.5, 0.5]},
        "domain": {"repr": "all", "radius": 4},
        "alpha": 1,
        "beta": 0,
        "x0": [-2, 3],
    },
    "fixedpoint-p1": {
        "space": "vec3-p1",
        "kind": "affine",
        "parameters": {"matrix": _CONTRACTION, "offset": [1, -0.5, 0.25]},
        "domain": {"repr": "all", "radius": 4},
        "alpha": 1,
        "beta": 0,
        "x0": [3, -2, 1.5],
    },
    "fixedpoint-pinf": {
        "space": "vec3-pinf",
        "kind": "affine",
        "parameters": {"matrix": _CONTRACTION, "offset": [0.75, 0.5, -1]},
        "domain": {"repr": "box", "lower": [-4, -4, -4], "upper": [4, 4, 4]},
        "alpha": 1,
        "beta": 0,
        "x0": [-3.5, 2, 0.5],
    },
    "fixedpoint-p1.5": {
        "space": "vec3-p1.5",
        "kind": "affine",
        "parameters": {"matrix": _CONTRACTION, "offset": [0.5, -0.25, 0.25]},
        "domain": {"repr": "ball", "center": [0, 0, 0], "radius": 4},
        "alpha": 1,
        "beta": 0,
        "x0": [1, 2, -1],
    },
    # drawn like the perfbench `solvers` maps; the orbit's last 32 points
    # alternate between two floats that differ in the last place
    "fixedpoint-cycle2": {
        "space": "vec3-p2",
        "kind": "affine",
        "parameters": {
            "matrix": [[-0.59, 0, 0], [0, 0, -0.46], [0, 0.83, 0]],
            "offset": [-2.86, 2.01, -3.47],
        },
        "domain": {"repr": "ball", "center": [-1.76, 2.51, -1.29], "radius": 2},
        "alpha": 1,
        "beta": 0,
        "x0": [-1.76, 2.51, -1.29],
    },
    # a halving affine map followed by a box projection, as one composition
    "fixedpoint-composition": {
        "space": "vec2-p2",
        "kind": "composition",
        "parameters": {
            "maps": [
                {
                    "kind": "affine",
                    "parameters": {"matrix": [[0.5, 0], [0, 0.5]], "offset": [1, -1]},
                },
                {
                    "kind": "box_projection",
                    "parameters": {"lower": [0, -2], "upper": [3, 0]},
                },
            ]
        },
        "domain": {"repr": "box", "lower": [-4, -4], "upper": [4, 4]},
        "alpha": 1,
        "beta": 0,
        "x0": [3, 3],
    },
    # the hybrid inequality's squared distances leave the float range: the
    # command exits 1 with the finite sampled pair as its certificate
    "fixedpoint-overflow": {
        "space": "vec1-p2",
        "kind": "affine",
        "parameters": {"matrix": [[1e200]], "offset": [0]},
        "alpha": 1,
        "beta": 0,
    },
    "nested-feasible": [
        [{"center": [0.5, 0], "radius": 1.5}],
        [{"center": [0.25, 0], "radius": 1.25}, {"center": [0, 1], "radius": 1}],
        [{"center": [0.125, 0], "radius": 1.125}],
    ],
    "nested-cantor": [
        [{"center": [0.5**n, 0.25**n], "radius": 2 * 0.5**n}] for n in range(1, 31)
    ],
    # two disjoint balls: the search stalls after 51 sweeps and the command
    # exits 1 with its failure report; an `infeasible` outcome for such a
    # family (ROADMAP item 1) regenerates this golden by design
    "nested-stalled": [
        [{"center": [0, 0], "radius": 1}, {"center": [3, 0], "radius": 1}],
    ],
}

# flags a case passes beyond its input and the common ones
EXTRA_FLAGS = {"nested-cantor": ["--cantor"]}

CASES = (
    [f"check-{space}" for space in CHECK_EXPECT]
    + [f"reproduce-{name}" for name in sorted(FIXTURES)]
    + list(INPUTS)
)


def report_stem(case: str) -> str:
    """The name, without suffix, of the reports that `case` writes."""
    command = case.split("-", 1)[0]
    # fixedpoint and nested write one report name whatever the input
    return case if command in ("check", "reproduce") else command


def run_case(case: str, out_dir: Path) -> Path:
    """Run the command behind `case` and return the JSON report it wrote."""
    cfg = out_dir / "golden-config.json"
    cfg.write_text(json.dumps({"sample_count": SAMPLE_COUNT}), encoding="utf-8")
    common = ["--config", str(cfg), "--seed", str(SEED), "--out", str(out_dir)]
    command, name = case.split("-", 1)
    if command == "check":
        argv = ["check", "--space", name, *common]
        if CHECK_EXPECT[name]:
            argv += ["--expect", CHECK_EXPECT[name]]
        if name in CHECK_PROPS:
            argv += ["--props", CHECK_PROPS[name]]
    elif command == "reproduce":
        argv = ["reproduce", name, *common]
    else:
        source = out_dir / f"{case}-input.json"
        source.write_text(json.dumps(INPUTS[case]), encoding="utf-8")
        argv = [command, str(source), *common]
    main(argv + EXTRA_FLAGS.get(case, []))
    return out_dir / f"{report_stem(case)}.json"


@pytest.mark.parametrize("case", CASES)
def test_report_bytes_match_golden(case, tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("MCLAB_")]:
        monkeypatch.delenv(key)
    golden = (GOLDEN_DIR / f"{case}.json").read_bytes()
    # stale reports, longer than the new ones, under both report names: the
    # command rewrites them in place and must leave none of their bytes
    stale = b"stale report\n" * (len(golden) // 13 + 100)
    for suffix in (".json", ".md"):
        (tmp_path / f"{report_stem(case)}{suffix}").write_bytes(stale)
    written = run_case(case, tmp_path)
    assert written.read_bytes() == golden
    assert b"stale report" not in written.with_suffix(".md").read_bytes()


# the functions and methods of src/mclab that no golden command calls; a
# name leaves the list when a command comes to reach it or it is deleted,
# and none joins it
UNREACHED = [
    "arith.rational_sqrt",
    "convexsets.FiniteSet.contains",
    "convexsets.SampledOracle.contains",
    "convexsets.SampledOracle.sample_points",
    "convexsets.SetUnion.contains",
    "convexsets.Singleton.contains",
    "convexsets.Singleton.nearest",
    "convexsets._l1_shrink",
    "convexsets._near",
    "convexsets.diameter",
    "nested.build_shrinking_family",
    "properties.check_diameter_strict",
    "properties.estimate_uniform_modulus",
    "properties.estimate_uniform_modulus.unit",
    "spaces.PiecewisePoly.value",
    "spaces.vadd",
    "verdicts.PropertyVerdict.refused",
]


def _defs() -> dict:
    """The dotted name of every `def` in src/mclab, keyed by (file, first
    line) as its code object records them: the first decorator's line for a
    decorated function."""
    names = {}

    def visit(node, filename, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, filename, f"{prefix}.{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[(filename, first)] = f"{prefix}.{child.name}"
                visit(child, filename, names[(filename, first)])
            else:
                visit(child, filename, prefix)

    for path in sorted(Path(mclab.__file__).parent.glob("*.py")):
        module = "mclab" if path.stem == "__init__" else f"mclab.{path.stem}"
        filename = importlib.import_module(module).__file__
        visit(ast.parse(path.read_text(encoding="utf-8")), filename, path.stem)
    return names


def test_the_functions_no_golden_command_reaches_are_the_pinned_list(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("MCLAB_")]:
        monkeypatch.delenv(key)
    # main keeps the parser it first builds: clear it, so that this run
    # calls build_parser whatever ran before
    monkeypatch.setattr(cli, "_parser", None)
    names = _defs()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for case in CASES:
            run_case(case, tmp_path)
    finally:
        sys.setprofile(None)
    assert sorted(names[key] for key in names.keys() - called) == UNREACHED


if __name__ == "__main__":
    import tempfile

    chosen = sys.argv[1:] or CASES
    unknown = [case for case in chosen if case not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    # the test runs without MCLAB_* overrides, so the regeneration must too
    for key in [k for k in os.environ if k.startswith("MCLAB_")]:
        del os.environ[key]
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in chosen:
            report = run_case(case, Path(tmp))
            golden = GOLDEN_DIR / f"{case}.json"
            golden.write_bytes(report.read_bytes())
            print(f"wrote {golden}", file=sys.stderr)
