from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mclab.fixedpoint as fixedpoint
from mclab.cli import main
from mclab.convexsets import MAX_BOX_AXES

ROT_SPEC = {
    "space": "vec2-p2",
    "kind": "rotation",
    "parameters": {"turns": "1/7", "center": [0, 0]},
    "domain": {"repr": "ball", "center": [0, 0], "radius": 1},
    "alpha": 1,
    "beta": 0,
    "x0": [1, 0],
}

DOUBLING_SPEC = {
    "space": "vec2-p2",
    "kind": "affine",
    "parameters": {"matrix": [[2, 0], [0, 2]], "offset": [0, 0]},
    "domain": {"repr": "all", "radius": 8},
    "alpha": 1,
    "beta": 0,
    "x0": [1, 0],
}

TRANSLATION_SPEC = {
    "space": "vec2-p2",
    "kind": "affine",
    "parameters": {"matrix": [[1, 0], [0, 1]], "offset": [1, 0]},
    "domain": {"repr": "all", "radius": 1e7},
    "alpha": 1,
    "beta": 0,
    "x0": [0, 0],
}

BOX_PROJECTION_SPEC = {
    "space": "vec2-p2",
    "kind": "box_projection",
    "parameters": {"lower": [0, 0], "upper": [1, 1]},
    "domain": {"repr": "box", "lower": [-2, -2], "upper": [2, 2]},
    "alpha": 1,
    "beta": 0,
    "x0": [1, 0],
}

# d_3 powers of differences near 1e120 overflow a float
HALVING_P3_SPEC = {
    "space": "vec2-p3",
    "kind": "affine",
    "parameters": {"matrix": [["1/2", 0], [0, "1/2"]], "offset": [0, 0]},
    "domain": {"repr": "all", "radius": 1e120},
    "alpha": 1,
    "beta": 0,
    "x0": [1, 0],
}

# the first image's second coordinate, 1e10 * 1e300 + 1e154, is inf, so the
# orbit's radius overflows
RADIUS_OVERFLOW_SPEC = {
    "space": "vec2-p1",
    "kind": "affine",
    "parameters": {"matrix": [[0, 0], [0, 1e10]], "offset": [0, 1e154]},
    "domain": {"repr": "all", "radius": 8},
    "alpha": 0,
    "beta": 1,
    "x0": [0, 1e300],
}

# squared distances between images near 1e301 leave the float range
HUGE_AFFINE_SPEC = {
    "space": "vec2-p2",
    "kind": "affine",
    "parameters": {"matrix": [[1e300, 0], [0, 1e300]], "offset": [0, 0]},
    "domain": {"repr": "all", "radius": 8},
    "alpha": 1,
    "beta": 0,
    "x0": [1, 0],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


FAMILY = [[{"center": [0.5, 0], "radius": 1.5}], [{"center": [0.25, 0], "radius": 1.25}]]
NOT_UTF8 = b'{"seed": "\xff"}'
BAD_CONVENTION = {"cfg.json": {"convention": "nope"}}

# one bad input per source and command: (argv, files written under their
# names in the run directory, MCLAB_* variables, message); a file's content
# is JSON-encoded unless it is bytes
INPUT_ERRORS = {
    "argv-unknown-fixture": (["reproduce", "nosuch"], {}, {}, "unknown fixture 'nosuch'"),
    "argv-unknown-space": (["check", "--space", "vec2-q7"], {}, {}, "unknown space id 'vec2-q7'"),
    "argv-space-with-two-points": (
        ["check", "--space", "vec2-p1.2.3"], {}, {}, "unknown space id 'vec2-p1.2.3'"
    ),
    "argv-space-p-overflows": (
        ["check", "--space", "vec2-p" + "1" * 400],
        {},
        {},
        "does not round-trip through a float (it reads as inf)",
    ),
    "argv-space-p-rounds": (
        ["check", "--space", "vec2-p1.0000000000000000001"],
        {},
        {},
        "p=1.0000000000000000001 in space id 'vec2-p1.0000000000000000001' does not "
        "round-trip through a float (it reads as 1.0)",
    ),
    "argv-space-p-integer-rounds": (
        ["check", "--space", "vec1-p56741487426496510"],
        {},
        {},
        "p=56741487426496510 in space id 'vec1-p56741487426496510' does not round-trip "
        "through a float",
    ),
    "argv-unknown-property": (
        ["check", "--space", "vec2-p2", "--props", "A,typo"], {}, {}, "unknown property 'typo'"
    ),
    "argv-props-comma": (
        ["check", "--space", "vec2-p2", "--props", ","], {}, {}, "--props names no property"
    ),
    "argv-props-empty": (
        ["check", "--space", "vec2-p2", "--props", ""], {}, {}, "--props names no property"
    ),
    "argv-props-twice": (
        ["check", "--space", "vec2-p2", "--props", "A,B,A"], {}, {}, "--props names 'A' twice"
    ),
    "argv-expect-twice": (
        ["check", "--space", "vec2-p2", "--props", "A", "--expect", "A=holds,A=fails"],
        {},
        {},
        "--expect names 'A' twice",
    ),
    "argv-missing-spec": (["fixedpoint", "none.json"], {}, {}, "cannot read mapping spec"),
    "argv-nested-space": (
        ["nested", "fam.json", "--space", "vec2-q7"],
        {"fam.json": FAMILY},
        {},
        "unknown space id 'vec2-q7'",
    ),
    "config-convention-reproduce": (
        ["reproduce", "linf-box", "--config", "cfg.json"],
        BAD_CONVENTION,
        {},
        "convention must be one of ['fromx', 'fromy'], not 'nope'",
    ),
    "config-convention-check": (
        ["check", "--space", "vec2-p2", "--props", "A", "--config", "cfg.json"],
        BAD_CONVENTION,
        {},
        "convention must be one of ['fromx', 'fromy'], not 'nope'",
    ),
    "config-convention-fixedpoint": (
        ["fixedpoint", "spec.json", "--config", "cfg.json"],
        {**BAD_CONVENTION, "spec.json": ROT_SPEC},
        {},
        "convention must be one of ['fromx', 'fromy'], not 'nope'",
    ),
    "config-convention-nested": (
        ["nested", "fam.json", "--config", "cfg.json"],
        {**BAD_CONVENTION, "fam.json": FAMILY},
        {},
        "convention must be one of ['fromx', 'fromy'], not 'nope'",
    ),
    "config-not-json": (
        ["reproduce", "linf-box", "--config", "cfg.json"],
        {"cfg.json": b"{not json"},
        {},
        "cannot read config",
    ),
    "config-not-utf8": (
        ["reproduce", "linf-box", "--config", "cfg.json"],
        {"cfg.json": NOT_UTF8},
        {},
        "cannot read config",
    ),
    "config-huge-integer": (
        ["fixedpoint", "spec.json", "--config", "cfg.json"],
        {"cfg.json": {"fp_tol": 10**400}, "spec.json": ROT_SPEC},
        {},
        "bad value for fp_tol",
    ),
    "config-unknown-key": (
        ["check", "--space", "vec2-p2", "--config", "cfg.json"],
        {"cfg.json": {"exact": True}},
        {},
        "unknown config key 'exact'",
    ),
    "env-sample-count": (
        ["check", "--space", "vec2-p2"],
        {},
        {"SAMPLE_COUNT": "0"},
        "sample_count must be at least 1",
    ),
    "env-convention": (
        ["nested", "fam.json"],
        {"fam.json": FAMILY},
        {"CONVENTION": "nope"},
        "convention must be one of",
    ),
    "env-seed": (
        ["fixedpoint", "spec.json"], {"spec.json": ROT_SPEC}, {"SEED": "abc"}, "bad value for seed"
    ),
    "spec-not-json": (
        ["fixedpoint", "spec.json"], {"spec.json": b"[1,"}, {}, "cannot read mapping spec"
    ),
    "spec-not-utf8": (
        ["fixedpoint", "spec.json"], {"spec.json": NOT_UTF8}, {}, "cannot read mapping spec"
    ),
    "spec-huge-integer": (
        ["fixedpoint", "spec.json"],
        {"spec.json": b'{"alpha": 1' + b"0" * 5000 + b"}"},
        {},
        "cannot read mapping spec: Exceeds the limit",
    ),
    "spec-unknown-space": (
        ["fixedpoint", "spec.json"],
        {"spec.json": dict(ROT_SPEC, space="vec2-q7")},
        {},
        "bad mapping spec: unknown space id 'vec2-q7'",
    ),
    "spec-alpha-zero-denominator": (
        ["fixedpoint", "spec.json"],
        {"spec.json": dict(ROT_SPEC, alpha="1/0")},
        {},
        "bad mapping spec: cannot interpret '1/0' as a scalar",
    ),
    "spec-beta-zero-denominator": (
        ["fixedpoint", "spec.json"],
        {"spec.json": dict(ROT_SPEC, beta="1/0")},
        {},
        "bad mapping spec: cannot interpret '1/0' as a scalar",
    ),
    "spec-turns-zero-denominator": (
        ["fixedpoint", "spec.json"],
        {"spec.json": dict(ROT_SPEC, parameters={"turns": "1/0"})},
        {},
        "bad mapping spec: cannot interpret '1/0' as a scalar",
    ),
    "spec-turns-overflow": (
        ["fixedpoint", "spec.json"],
        {"spec.json": dict(ROT_SPEC, parameters={"turns": "1e400"})},
        {},
        "bad mapping spec: turns lies beyond the float range",
    ),
    "spec-turns-angle-overflow": (
        ["fixedpoint", "spec.json"],
        {"spec.json": dict(ROT_SPEC, parameters={"turns": 1e308})},
        {},
        "bad mapping spec: the angle of turns lies beyond the float range",
    ),
    "spec-matrix-overflow": (
        ["fixedpoint", "spec.json"],
        {
            "spec.json": dict(
                DOUBLING_SPEC, parameters={"matrix": [["1e400", 0], [0, 2]], "offset": [0, 0]}
            )
        },
        {},
        "bad mapping spec: entry '1e400' lies beyond the float range",
    ),
    "spec-offset-overflow": (
        ["fixedpoint", "spec.json"],
        {
            "spec.json": dict(
                DOUBLING_SPEC, parameters={"matrix": [[2, 0], [0, 2]], "offset": ["1e400", 0]}
            )
        },
        {},
        "bad mapping spec: entry '1e400' lies beyond the float range",
    ),
    "spec-box-domain-overflow": (
        ["fixedpoint", "spec.json"],
        {
            "spec.json": dict(
                DOUBLING_SPEC, domain={"repr": "box", "lower": ["-1e400", 0], "upper": [1, 1]}
            )
        },
        {},
        "bad mapping spec: entry '-1e400' lies beyond the float range",
    ),
    # a projection's bounds are checked as a box domain's are
    "spec-box-projection-inverted": (
        ["fixedpoint", "spec.json"],
        {
            "spec.json": dict(
                DOUBLING_SPEC,
                kind="box_projection",
                parameters={"lower": [1, 1], "upper": [0, 0]},
            )
        },
        {},
        "box lower bound exceeds upper bound",
    ),
    "spec-x0-huge-integer": (
        ["fixedpoint", "spec.json"],
        {"spec.json": dict(ROT_SPEC, x0=[10**400, 0])},
        {},
        "is not a finite number",
    ),
    # a JSON boolean is no number, in a spec as in a config file
    "spec-matrix-boolean": (
        ["fixedpoint", "spec.json"],
        {
            "spec.json": dict(
                DOUBLING_SPEC,
                parameters={"matrix": [[True, 0], [0, False]], "offset": [0, 0]},
            )
        },
        {},
        "bad mapping spec: cannot interpret True as a scalar",
    ),
    "spec-x0-boolean": (
        ["fixedpoint", "spec.json"],
        {"spec.json": dict(ROT_SPEC, x0=[True, 0])},
        {},
        "bad mapping spec: cannot interpret True as a number",
    ),
    "spec-ball-radius-boolean": (
        ["fixedpoint", "spec.json"],
        {"spec.json": dict(ROT_SPEC, domain={"repr": "ball", "center": [0, 0], "radius": True})},
        {},
        "bad mapping spec: cannot interpret True as a number",
    ),
    "spec-alpha-boolean": (
        ["fixedpoint", "spec.json"],
        {"spec.json": dict(ROT_SPEC, alpha=True)},
        {},
        "bad mapping spec: cannot interpret True as a scalar",
    ),
    "family-center-boolean": (
        ["nested", "fam.json", "--space", "vec2-p2"],
        {"fam.json": [[{"center": [True, False], "radius": 1}]]},
        {},
        "cannot read family: cannot interpret True as a scalar",
    ),
    "family-radius-boolean": (
        ["nested", "fam.json", "--space", "vec2-p2"],
        {"fam.json": [[{"center": [0, 0], "radius": True}]]},
        {},
        "cannot read family: cannot interpret True as a scalar",
    ),
    "family-not-json": (["nested", "fam.json"], {"fam.json": b""}, {}, "cannot read family"),
    "family-center-overflow": (
        ["nested", "fam.json", "--space", "vec2-p2"],
        {"fam.json": [[{"center": ["1e400", 0], "radius": 1}, {"center": [0, 0], "radius": 2}]]},
        {},
        "cannot read family: a ball's center or radius lies beyond the float range",
    ),
    "family-center-huge-integer": (
        ["nested", "fam.json", "--space", "vec2-p2"],
        {"fam.json": [[{"center": [10**400, 0], "radius": 1}]]},
        {},
        "cannot read family: a ball's center or radius lies beyond the float range",
    ),
    "family-radius-overflow": (
        ["nested", "fam.json", "--space", "vec2-p2"],
        {"fam.json": [[{"center": [0, 0], "radius": "1e400"}, {"center": [1, 0], "radius": 2}]]},
        {},
        "cannot read family: a ball's center or radius lies beyond the float range",
    ),
    "family-float-radius-exact": (
        ["nested", "fam.json", "--space", "vec2-p1-exact"],
        {"fam.json": [[{"center": [0, 0], "radius": 1.5}], [{"center": [1, 0], "radius": 0.25}]]},
        {},
        "cannot read family: exact space requires a rational radius, not 1.5",
    ),
    "family-negative-radius": (
        ["nested", "fam.json"],
        {"fam.json": [[{"center": [0, 0], "radius": -1}]]},
        {},
        "cannot read family: ball radius must be at least 0",
    ),
}


@pytest.mark.parametrize("argv, files, env, message", INPUT_ERRORS.values(), ids=INPUT_ERRORS)
def test_an_input_error_exits_two_with_one_line_and_no_report(
    argv, files, env, message, tmp_path, monkeypatch, capsys
):
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            write_json(tmp_path / name, content)
    for key, value in env.items():
        monkeypatch.setenv("MCLAB_" + key, value)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert message in lines[0]
    assert not out.exists() or not list(out.iterdir())


class TestReproduce:
    @pytest.mark.parametrize(
        "fixture", ["l1-aij", "linf-box", "ex1-betweenness", "L1-ha", "Linf-hp"]
    )
    def test_known_fixtures_exit_zero(self, fixture, tmp_path):
        assert main(["reproduce", fixture, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / f"reproduce-{fixture}.json").read_text())
        assert report["report"]["ok"] is True

    def test_unknown_fixture_exits_two(self, tmp_path):
        assert main(["reproduce", "nosuch", "--out", str(tmp_path)]) == 2


class TestCheck:
    def test_euclidean_suite_all_holds(self, tmp_path):
        code = main(
            [
                "check",
                "--space",
                "vec3-p2",
                "--props",
                "menger,A,B,Bprime,Bdoubleprime,C",
                "--out",
                str(tmp_path),
                "--seed",
                "7",
            ]
        )
        assert code == 0

    def test_sup_suite_with_expected_failures(self, tmp_path):
        code = main(
            [
                "check",
                "--space",
                "vec3-pinf",
                "--props",
                "A,C",
                "--expect",
                "A=fails,C=fails",
                "--out",
                str(tmp_path),
                "--seed",
                "7",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "check-vec3-pinf.json").read_text())
        fails = {r["property"]: r for r in report["reports"]}
        assert fails["A"]["witness"] is not None
        assert fails["C"]["witness"] is not None

    def test_a_p_near_one_writes_its_own_report(self, tmp_path):
        # the id was written with 6 significant digits: this run overwrote
        # check-vec3-p1.json and named d_1, where A fails
        argv = ["check", "--space", "vec3-p1.0000000001", "--props", "A"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert [f.name for f in tmp_path.glob("*.json")] == ["check-vec3-p1.0000000001.json"]
        report = json.loads((tmp_path / "check-vec3-p1.0000000001.json").read_text())
        assert report["space"] == "vec3-p1.0000000001"

    def test_wrong_expectation_exits_one(self, tmp_path):
        code = main(
            [
                "check",
                "--space",
                "vec3-p2",
                "--props",
                "A",
                "--expect",
                "A=fails",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1

    def test_refusal_can_be_expected(self, tmp_path):
        code = main(
            [
                "check",
                "--space",
                "vec3-pinf",
                "--props",
                "B",
                "--expect",
                "B=refused",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("space, prop", [("vec3-p2", "C"), ("vec3-pinf", "menger")])
    def test_a_float_verdict_at_tol_zero_fails_on_rounding(self, space, prop, tmp_path):
        # a construction checked its own rounding against tol, so tol 0 ended
        # in an InternalInconsistency traceback before any report was written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 0}))
        argv = ["check", "--space", space, "--props", prop, "--seed", "1"]
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / f"check-{space}.json").read_text())
        [entry] = report["reports"]
        assert entry["outcome"] == "fails" and entry["maxSlack"] > 0

    def test_an_exact_verdict_compares_its_slack_with_zero(self, tmp_path):
        # with tol 10, B' held with maxSlack 207/64 and B'' with maxSlack 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 10}))
        argv = ["check", "--space", "vec3-p1-exact", "--props", "Bprime,Bdoubleprime"]
        argv += ["--expect", "Bprime=fails,Bdoubleprime=fails", "--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "check-vec3-p1-exact.json").read_text())
        assert [r["samples"] for r in report["reports"]] == [1, 1]

    def test_bad_space_id_exits_two(self, tmp_path):
        assert (
            main(["check", "--space", "nope", "--props", "A", "--out", str(tmp_path)])
            == 2
        )

    @pytest.mark.parametrize("space", ["l1fn-exact", "linffn"])
    @pytest.mark.parametrize(
        "prop", ["menger", "A", "B", "Bprime", "Bdoubleprime", "C", "homogeneity"]
    )
    def test_function_space_id_exits_two(self, space, prop, tmp_path, capsys):
        argv = ["check", "--space", space, "--props", prop, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "vector space id" in capsys.readouterr().out

    @pytest.mark.parametrize("space", ["vec11-p1", "vec11-p1-exact"])
    def test_taxicab_above_the_vertex_bound_exits_two(self, space, tmp_path, capsys):
        argv = ["check", "--space", space, "--props", "A", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "up to dimension 10" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("exact", ["", "-exact"])
    def test_sup_metric_above_the_grid_bound_exits_two(self, exact, tmp_path, capsys):
        # a box in dimension 20 has a 3^20-point sample grid, which property
        # C and B'' enumerate; the per-axis Menger check alone would run
        space = f"vec{MAX_BOX_AXES + 1}-pinf{exact}"
        argv = ["check", "--space", space, "--props", "menger", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert f"d_inf up to dimension {MAX_BOX_AXES}" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())
        argv[2] = f"vec{MAX_BOX_AXES}-pinf{exact}"
        assert main(argv) == 0

    def test_unknown_convention_in_a_config_file_exits_two(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"convention": "nope"})
        argv = ["check", "--space", "vec2-p2", "--props", "A", "--config", cfg]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "convention must be one of" in capsys.readouterr().out

    def test_unknown_convention_in_the_environment_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MCLAB_CONVENTION", "nope")
        argv = ["check", "--space", "vec2-p2", "--props", "A", "--out", str(tmp_path)]
        assert main(argv) == 2

    def test_bad_expectation_exits_two(self, tmp_path):
        code = main(
            [
                "check",
                "--space",
                "vec3-p2",
                "--props",
                "A",
                "--expect",
                "A=maybe",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_expectations_use_the_props_names(self, tmp_path):
        # menger=fails and homogeneity=fails were dropped, and the run passed
        argv = ["check", "--space", "vec3-p2", "--props", "menger,homogeneity"]
        argv += ["--expect", "menger=fails,homogeneity=fails", "--out", str(tmp_path)]
        assert main(argv) == 1
        report = json.loads((tmp_path / "check-vec3-p2.json").read_text())
        assert [r["expected"] for r in report["reports"]] == ["fails", "fails"]
        assert [r["matched"] for r in report["reports"]] == [False, False]

    @pytest.mark.parametrize("expect", ["MengerConvex=holds", "A=fails", "menger=holds,C=holds"])
    def test_an_expectation_outside_the_run_exits_two(self, expect, tmp_path, capsys):
        argv = ["check", "--space", "vec3-p2", "--props", "menger,homogeneity"]
        assert main(argv + ["--expect", expect, "--out", str(tmp_path)]) == 2
        assert "which --props does not run" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    def test_an_unknown_property_exits_two_before_any_checker_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        import mclab.cli as cli

        calls = []
        for name in ("check_menger_convex", "check_property", "check_homogeneity"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
        argv = ["check", "--space", "vec10-p1-exact", "--props", "menger,A,Bdoubleprime,typo"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "unknown property 'typo'" in capsys.readouterr().out
        assert calls == []

    def test_reports_embed_the_resolved_config(self, tmp_path):
        main(
            [
                "check",
                "--space",
                "vec2-p2",
                "--props",
                "A",
                "--out",
                str(tmp_path),
                "--seed",
                "99",
            ]
        )
        report = json.loads((tmp_path / "check-vec2-p2.json").read_text())
        assert report["config"]["seed"] == 99
        assert report["reports"][0]["plan"]["seed"] == 99


# the four squares are finite, lhs = -1e308 and rhs = 1e308, and their
# difference is -inf
SLACK_OVERFLOW_SPEC = {
    "space": "vec2-p1",
    "kind": "affine",
    "parameters": {"matrix": [[0, 0], [0, 0]], "offset": [0, 1e154]},
    "domain": {"repr": "all", "radius": 8},
    "alpha": 2,
    "beta": 1,
    "x0": [0, 0],
}


@st.composite
def _huge_affine_specs(draw):
    """Affine specs on 2-D float spaces with entries from 1e-300 to 1e300."""
    magnitude = st.sampled_from([0, 1, -1, 0.25, 1e-300, 1e10, 1e154, 1e300, -1e300])
    pair = st.lists(magnitude, min_size=2, max_size=2)
    return {
        "space": draw(st.sampled_from(["vec2-p1", "vec2-p2", "vec2-p3", "vec2-pinf"])),
        "kind": "affine",
        "parameters": {"matrix": draw(st.lists(pair, min_size=2, max_size=2)),
                       "offset": draw(pair)},
        "domain": draw(st.sampled_from([
            {"repr": "all", "radius": 8},
            {"repr": "all", "radius": 1e300},
            {"repr": "ball", "center": [0, 0], "radius": 1e300},
        ])),
        "alpha": draw(st.sampled_from([0, 1, 2])),
        "beta": draw(st.sampled_from([0, 1])),
        "x0": draw(pair),
    }


class TestFixedpointCommand:
    def test_rotation_spec_converges(self, tmp_path):
        spec = write_json(tmp_path / "rot.json", ROT_SPEC)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fixedpoint.json").read_text())
        assert report["result"]["residual"] <= 1e-6

    def test_doubling_spec_fails_verification(self, tmp_path):
        spec = write_json(tmp_path / "double.json", DOUBLING_SPEC)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "fixedpoint.json").read_text())
        assert report["hybrid"]["outcome"] == "fails"
        assert "witness" in report["hybrid"]

    def test_translation_spec_unbounded_orbit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fixedpoint, "_RMAX", 100.0)
        spec = write_json(tmp_path / "translate.json", TRANSLATION_SPEC)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "fixedpoint.json").read_text())
        assert "unbounded" in report["error"]
        assert report["certificate"] == {"radius": 101.0, "rmax": 100.0}

    def test_orbit_radius_beyond_the_float_range_leaves_it_out(self, tmp_path):
        spec = write_json(tmp_path / "overflow.json", RADIUS_OVERFLOW_SPEC)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 1
        text = (tmp_path / "fixedpoint.json").read_text(encoding="utf-8")
        report = json.loads(text)
        assert "float range" in report["error"]
        assert report["certificate"] == {"rmax": 1e6}
        assert "Infinity" not in text

    def test_window_whose_distances_overflow_exits_without_traceback(self, tmp_path):
        spec = write_json(tmp_path / "halve.json", HALVING_P3_SPEC)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) in (0, 1, 2)

    @pytest.mark.parametrize(
        "scale, alpha, beta, radius",
        [
            # squares beyond the float range, under zero weights too,
            # where 0 * inf would be NaN
            (1e300, 1, 0, 8),
            (1e300, 0, 1, 8),
            (1e300, 2, 1, 8),
            # finite squares near 1e300 whose weighted sides are inf - inf
            (1, 1e10, 0, 1e150),
        ],
    )
    def test_sides_out_of_the_float_range_exit_one_with_an_error(
        self, scale, alpha, beta, radius, tmp_path, capsys
    ):
        spec = dict(HUGE_AFFINE_SPEC, alpha=alpha, beta=beta)
        spec["parameters"] = {"matrix": [[scale, 0], [0, scale]], "offset": [0, 0]}
        spec["domain"] = {"repr": "all", "radius": radius}
        path = write_json(tmp_path / "huge.json", spec)
        assert main(["fixedpoint", path, "--out", str(tmp_path)]) == 1
        assert "float range" in capsys.readouterr().out
        text = (tmp_path / "fixedpoint.json").read_text(encoding="utf-8")
        assert "float range" in json.loads(text)["error"]
        assert "NaN" not in text and "Infinity" not in text

    @pytest.mark.parametrize(
        "spec",
        [
            SLACK_OVERFLOW_SPEC,
            # the first row's products overflow to inf and -inf, so an image
            # has a NaN coordinate and lies outside the ball
            dict(
                HUGE_AFFINE_SPEC,
                parameters={"matrix": [[1e300, 1e300], [0, 1]], "offset": [0, 0]},
                domain={"repr": "ball", "center": [0, 0], "radius": 1e300},
            ),
        ],
        ids=["slack", "image"],
    )
    def test_overflow_past_the_sides_exits_one_with_a_float_range_error(
        self, spec, tmp_path, capsys
    ):
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["fixedpoint", path, "--out", str(tmp_path)]) == 1
        assert "float range" in capsys.readouterr().out
        text = (tmp_path / "fixedpoint.json").read_text(encoding="utf-8")
        error = json.loads(text)["error"]
        assert "float range" in error and "sends a sampled point" not in error
        assert "Infinity" not in text

    @given(spec=_huge_affine_specs())
    @example(spec=SLACK_OVERFLOW_SPEC)
    @example(spec=RADIUS_OVERFLOW_SPEC)
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_specs_with_magnitudes_up_to_1e300_exit_without_traceback(
        self, spec, tmp_path, monkeypatch
    ):
        # a smaller search budget bounds the run time
        monkeypatch.setattr(fixedpoint, "_BUDGET", 2000)
        path = write_json(tmp_path / "spec.json", spec)
        cfg = write_json(tmp_path / "cfg.json", {"sample_count": 20})
        rc = main(["fixedpoint", path, "--out", str(tmp_path), "--config", cfg])
        assert rc in (0, 1, 2)
        if rc != 2:
            text = (tmp_path / "fixedpoint.json").read_text(encoding="utf-8")
            json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in the report"))

    @pytest.mark.parametrize(
        "alpha", [10**400, "1e400", -(10**400)], ids=["int", "string", "negative"]
    )
    def test_alpha_beyond_the_float_range_exits_two(self, alpha, tmp_path, capsys):
        spec = write_json(tmp_path / "huge.json", dict(ROT_SPEC, alpha=alpha))
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 2
        assert "bad mapping spec: alpha lies beyond the float range" in (
            capsys.readouterr().out
        )
        assert not (tmp_path / "fixedpoint.json").exists()

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["fixedpoint", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2

    def test_bad_space_id_exits_two(self, tmp_path):
        spec = write_json(tmp_path / "bad.json", dict(ROT_SPEC, space="vec2-q7"))
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 2

    def test_space_id_that_is_not_a_string_exits_two(self, tmp_path, capsys):
        spec = write_json(tmp_path / "bad.json", dict(ROT_SPEC, space=5))
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 2
        assert "a space id is a string, not 5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad",
        [
            dict(ROT_SPEC, domain={"repr": "all", "radius": 4}, x0=[math.inf, 0]),
            dict(ROT_SPEC, domain={"repr": "all", "radius": "inf"}),
            dict(ROT_SPEC, parameters={"angle": "nan", "center": [0, 0]}),
        ],
        ids=["infinite-x0", "infinite-window", "nan-angle"],
    )
    def test_non_finite_number_exits_two(self, bad, tmp_path, capsys):
        spec = write_json(tmp_path / "bad.json", bad)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 2
        assert "is not a finite number" in capsys.readouterr().out
        assert not (tmp_path / "fixedpoint.json").exists()

    def test_spec_that_is_not_an_object_exits_two(self, tmp_path):
        spec = write_json(tmp_path / "list.json", [1, 2])
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 2

    def test_non_scalar_matrix_entry_exits_two(self, tmp_path, capsys):
        bad = dict(DOUBLING_SPEC, parameters={"matrix": [[None, 0], [0, 1]], "offset": [0, 0]})
        spec = write_json(tmp_path / "bad.json", bad)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 2
        assert "cannot interpret None as a scalar" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad",
        [
            dict(DOUBLING_SPEC, parameters={"matrix": 5, "offset": [0, 0]}),
            dict(ROT_SPEC, domain={"repr": "ball", "center": 5, "radius": 1}),
            dict(ROT_SPEC, domain={"repr": "ball", "center": [0, 0], "radius": None}),
            dict(ROT_SPEC, domain=[1]),
            dict(ROT_SPEC, parameters=[1]),
            dict(ROT_SPEC, x0=5),
        ],
        ids=[
            "scalar-matrix",
            "scalar-ball-center",
            "null-ball-radius",
            "list-domain",
            "list-parameters",
            "scalar-x0",
        ],
    )
    def test_spec_value_of_the_wrong_shape_exits_two(self, bad, tmp_path, capsys):
        spec = write_json(tmp_path / "bad.json", bad)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 2
        assert "bad mapping spec" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(DOUBLING_SPEC, parameters={"offset": [0, 0]}), "missing key 'matrix'"),
            (
                dict(DOUBLING_SPEC, parameters={"matrix": [[1, 0], [0, 1]]}),
                "missing key 'offset'",
            ),
            (
                dict(BOX_PROJECTION_SPEC, parameters={"upper": [1, 1]}),
                "missing key 'lower'",
            ),
            (
                dict(BOX_PROJECTION_SPEC, parameters={"lower": [0, 0]}),
                "missing key 'upper'",
            ),
            (dict(DOUBLING_SPEC, kind="composition", parameters={}), "missing key 'maps'"),
            (
                dict(
                    DOUBLING_SPEC,
                    kind="composition",
                    parameters={"maps": [{"kind": "affine", "parameters": {}}]},
                ),
                "missing key 'matrix'",
            ),
            (dict(ROT_SPEC, domain={"repr": "ball", "radius": 1}), "missing key 'center'"),
            (dict(ROT_SPEC, domain={"repr": "ball", "center": [0, 0]}), "missing key 'radius'"),
            (dict(ROT_SPEC, domain={"repr": "box", "upper": [1, 1]}), "missing key 'lower'"),
            (dict(ROT_SPEC, domain={"repr": "box", "lower": [-1, -1]}), "missing key 'upper'"),
            (
                dict(ROT_SPEC, parameters={"center": [0, 0]}),
                "a rotation needs exactly one of turns and angle",
            ),
        ],
        ids=[
            "matrix",
            "offset",
            "lower",
            "upper",
            "maps",
            "composed-matrix",
            "ball-center",
            "ball-radius",
            "box-lower",
            "box-upper",
            "rotation-turns-or-angle",
        ],
    )
    def test_missing_spec_key_is_named(self, bad, message, tmp_path, capsys):
        # a missing key printed only its KeyError text: "bad mapping spec: 'center'"
        spec = write_json(tmp_path / "bad.json", bad)
        assert main(["fixedpoint", spec, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: bad mapping spec: {message}" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_rotation_with_both_turns_and_angle_exits_two(self, tmp_path, capsys):
        # the angle was silently ignored in favour of the turns
        bad = dict(ROT_SPEC, parameters={"turns": "1/4", "angle": 0.1})
        spec = write_json(tmp_path / "bad.json", bad)
        assert main(["fixedpoint", spec, "--out", str(tmp_path / "out")]) == 2
        assert (
            "bad mapping spec: a rotation needs exactly one of turns and angle"
            in capsys.readouterr().out
        )
        assert not (tmp_path / "out").exists()

    def test_map_that_leaves_the_domain_exits_one(self, tmp_path, capsys):
        escaping = dict(
            DOUBLING_SPEC,
            parameters={"matrix": [[1, 0], [0, 1]], "offset": [10, 0]},
            domain={"repr": "box", "lower": [-1, -1], "upper": [1, 1]},
            x0=[0, 0],
        )
        spec = write_json(tmp_path / "escape.json", escaping)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "fixedpoint.json").read_text())
        assert "mapping sends a sampled point" in report["error"]
        assert "hybrid" not in report
        assert "mapping sends a sampled point" in capsys.readouterr().out

    @pytest.mark.parametrize("space", ["l1fn", "vec2-p1-exact"])
    def test_space_the_solver_cannot_sample_exits_two(self, space, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", dict(ROT_SPEC, space=space))
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 2
        assert "needs a float vector space id" in capsys.readouterr().out
        assert not (tmp_path / "fixedpoint.json").exists()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                dict(ROT_SPEC, domain={"repr": "box", "lower": [1, 0], "upper": [0, 1]}),
                "lower bound exceeds upper bound",
            ),
            (
                dict(ROT_SPEC, domain={"repr": "ball", "center": [0, 0], "radius": -1}),
                "ball radius must be at least 0",
            ),
            (
                dict(ROT_SPEC, domain={"repr": "ball", "center": [0, 0, 0], "radius": 1}),
                "point of length 3 in a 2-dimensional space",
            ),
            (
                dict(ROT_SPEC, domain={"repr": "box", "lower": [-1] * 3, "upper": [1] * 3}),
                "point of length 3 in a 2-dimensional space",
            ),
            (dict(ROT_SPEC, x0=[1, 0, 0]), "point of length 3 in a 2-dimensional space"),
            (
                dict(DOUBLING_SPEC, domain={"repr": "all", "radius": -1}),
                "window radius must be at least 0",
            ),
            # sampling draws lo + (hi - lo) * u, which an axis wider than
            # the float range sends to inf
            (
                dict(ROT_SPEC, domain={"repr": "all", "radius": 1e308}),
                "the width of a domain axis lies beyond the float range",
            ),
            (
                dict(
                    ROT_SPEC, domain={"repr": "box", "lower": [-1e308] * 2, "upper": [1e308] * 2}
                ),
                "the width of a domain axis lies beyond the float range",
            ),
            (
                dict(ROT_SPEC, domain={"repr": "ball", "center": [0, 0], "radius": 1e308}),
                "the width of a domain axis lies beyond the float range",
            ),
        ],
        ids=[
            "box-lower-above-upper",
            "negative-radius",
            "3d-center",
            "3d-box",
            "3d-x0",
            "negative-window",
            "window-wider-than-floats",
            "box-wider-than-floats",
            "ball-wider-than-floats",
        ],
    )
    def test_invalid_domain_or_start_exits_two(self, bad, message, tmp_path, capsys):
        spec = write_json(tmp_path / "bad.json", bad)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                dict(
                    DOUBLING_SPEC,
                    parameters={"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "offset": [0] * 3},
                    domain={"repr": "ball", "center": [0, 0], "radius": 1},
                ),
                "matrix row has 3 entries in a 2-dimensional space",
            ),
            (
                dict(
                    ROT_SPEC,
                    space="vec3-p2",
                    domain={"repr": "ball", "center": [0, 0, 0], "radius": 1},
                    x0=[1, 0, 0],
                ),
                "a rotation needs a 2-dimensional space, not 3",
            ),
            (
                dict(DOUBLING_SPEC, parameters={"matrix": [[1, 0, 0], [0, 1, 0]], "offset": [0, 0]}),
                "matrix row has 3 entries in a 2-dimensional space",
            ),
        ],
        ids=["3x3-affine-on-vec2", "rotation-on-vec3", "2x3-affine-on-vec2"],
    )
    def test_mapping_of_another_dimension_exits_two(self, bad, message, tmp_path, capsys):
        spec = write_json(tmp_path / "bad.json", bad)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().out
        assert not (tmp_path / "fixedpoint.json").exists()

    def test_ball_domain_uses_the_spec_metric(self, tmp_path):
        # (0.9, 0.9) lies in the d_inf unit ball but outside the Euclidean one
        halving = {
            "space": "vec2-pinf",
            "kind": "affine",
            "parameters": {"matrix": [[0.5, 0], [0, 0.5]], "offset": [0, 0]},
            "domain": {"repr": "ball", "center": [0, 0], "radius": 1},
            "x0": [0.9, 0.9],
        }
        spec = write_json(tmp_path / "halving.json", halving)
        assert main(["fixedpoint", spec, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fixedpoint.json").read_text())
        assert report["result"]["converged"]


class TestNestedCommand:
    def test_family_feasible(self, tmp_path):
        fam = [
            [{"center": [0.5, 0], "radius": 1.5}],
            [{"center": [0.25, 0], "radius": 1.25}],
            [{"center": [0.125, 0], "radius": 1.125}],
        ]
        path = write_json(tmp_path / "fam.json", fam)
        assert main(["nested", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "nested.json").read_text())
        assert report["result"]["max_violation"] <= 1e-6

    def test_disjoint_family_exits_one(self, tmp_path):
        fam = [[{"center": [0, 0], "radius": 1}, {"center": [5, 0], "radius": 1}]]
        path = write_json(tmp_path / "bad.json", fam)
        assert main(["nested", path, "--out", str(tmp_path)]) == 1

    def test_bad_space_id_exits_two(self, tmp_path):
        fam = [[{"center": [0, 0], "radius": 1}]]
        path = write_json(tmp_path / "fam.json", fam)
        assert main(["nested", path, "--space", "vec2-q7", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "family",
        [
            {"a": 1},
            [[1]],
            [{"center": [0, 0], "radius": 1}],
            [[{"radius": 1}]],
            [[{"center": 5, "radius": 1}]],
        ],
    )
    def test_family_of_the_wrong_shape_exits_two(self, family, tmp_path):
        path = write_json(tmp_path / "fam.json", family)
        assert main(["nested", path, "--out", str(tmp_path)]) == 2

    def test_negative_radius_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "fam.json", [[{"center": [0, 0], "radius": -1}]])
        assert main(["nested", path, "--out", str(tmp_path)]) == 2
        assert "ball radius must be at least 0" in capsys.readouterr().out

    def test_family_of_another_dimension_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "fam.json", [[{"center": [0, 0], "radius": 1}]])
        argv = ["nested", path, "--space", "vec3-p2", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "point of length 2 in a 3-dimensional space" in capsys.readouterr().out

    @pytest.mark.parametrize("radius", [None, "abc"], ids=["null", "text"])
    def test_non_scalar_radius_exits_two(self, radius, tmp_path, capsys):
        path = write_json(tmp_path / "fam.json", [[{"center": [0, 0], "radius": radius}]])
        assert main(["nested", path, "--out", str(tmp_path)]) == 2
        assert "as a scalar" in capsys.readouterr().out

    def test_non_finite_center_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "fam.json", [[{"center": [math.nan, 0, 0], "radius": 1}]])
        argv = ["nested", path, "--space", "vec3-p2", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "nan is not a finite number" in capsys.readouterr().out

    def test_cantor_flag(self, tmp_path):
        fam = [[{"center": [0.25, 0.25], "radius": 0.5**n}] for n in range(1, 40)]
        path = write_json(tmp_path / "cantor.json", fam)
        assert main(["nested", path, "--cantor", "--out", str(tmp_path)]) == 0

    def test_cantor_accepts_a_point_within_the_diameter_bound(self, tmp_path):
        # the last set is one point, so est = 0: a point within fp_tol of
        # every ball is the common point up to the bound 2 fp_tol
        fam = [[{"center": [0, 0], "radius": 1}], [{"center": [0.5, 0.25], "radius": 0}]]
        path = write_json(tmp_path / "fam.json", fam)
        argv = ["nested", path, "--space", "vec2-p1.5", "--cantor", "--out", str(tmp_path)]
        assert main(argv) == 0
        report = json.loads((tmp_path / "nested.json").read_text())
        assert report["result"]["max_violation"] <= report["config"]["fp_tol"]

    def test_cantor_accepts_repeated_diameter_estimates(self, tmp_path):
        # the first two sets are equal; the family still decreases, and its
        # last estimate 2e-9 is below fp_tol
        fam = [
            [{"center": [0, 0], "radius": 1}],
            [{"center": [0, 0], "radius": 1}],
            [{"center": [0, 0], "radius": 1e-9}],
        ]
        path = write_json(tmp_path / "fam.json", fam)
        argv = ["nested", path, "--space", "vec2-p2", "--cantor", "--out", str(tmp_path)]
        assert main(argv) == 0
        report = json.loads((tmp_path / "nested.json").read_text())
        assert report["result"]["max_violation"] <= report["config"]["fp_tol"]

    def test_an_exact_violation_prints_as_a_float(self, tmp_path, capsys):
        # the search stops at a positive Fraction violation below fp_tol
        fam = [
            [
                {"center": ["5/4", "1/4", "7/4"], "radius": "5500001/1000000"},
                {"center": ["-3/2", "-2", "-3/4"], "radius": "2000001/1000000"},
                {"center": ["-1", "-1/4", "1/2"], "radius": "2000001/1000000"},
            ]
        ]
        path = write_json(tmp_path / "fam.json", fam)
        argv = ["nested", path, "--space", "vec3-p1-exact", "--out", str(tmp_path)]
        assert main(argv) == 0
        line = "nested: common point found, violation=1.55e-07"
        assert capsys.readouterr().out.splitlines() == [line]

    @pytest.mark.parametrize(
        "out", ["file", "file/reports"], ids=["existing-file", "under-a-file"]
    )
    def test_an_out_that_cannot_be_a_directory_exits_two(self, out, tmp_path, capsys):
        path = write_json(tmp_path / "fam.json", [[{"center": [0, 0], "radius": 1}]])
        (tmp_path / "file").write_text("")
        assert main(["nested", path, "--out", str(tmp_path / out)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: cannot write reports to '{tmp_path / out}'")


class TestDeterminism:
    def test_identical_bytes_across_runs_and_directories(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out in (d1, d2):
            main(
                [
                    "check",
                    "--space",
                    "vec2-p2",
                    "--props",
                    "A,Bprime",
                    "--out",
                    str(out),
                    "--seed",
                    "5",
                ]
            )
        assert (d1 / "check-vec2-p2.json").read_bytes() == (
            d2 / "check-vec2-p2.json"
        ).read_bytes()
        assert (d1 / "check-vec2-p2.md").read_bytes() == (
            d2 / "check-vec2-p2.md"
        ).read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MCLAB_SEED", "321")
        main(["check", "--space", "vec2-p2", "--props", "A", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "check-vec2-p2.json").read_text())
        assert report["config"]["seed"] == 321

    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 777, "sample_count": 50}), encoding="utf-8")
        main(
            [
                "check",
                "--space",
                "vec2-p2",
                "--props",
                "A",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path),
            ]
        )
        report = json.loads((tmp_path / "check-vec2-p2.json").read_text())
        assert report["config"]["seed"] == 777
        assert report["config"]["sample_count"] == 50

    def test_bad_config_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json", encoding="utf-8")
        code = main(
            [
                "check",
                "--space",
                "vec2-p2",
                "--props",
                "A",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2


class TestParserReuse:
    """The parser is built once per process; consecutive calls of `main`
    must not see each other's arguments."""

    def test_a_flag_does_not_carry_over(self, tmp_path):
        fam = [
            [{"center": [0.5, 0], "radius": 1.5}],
            [{"center": [0.25, 0], "radius": 1.25}],
        ]
        path = write_json(tmp_path / "fam.json", fam)
        # the diameters never vanish, so only the plain search succeeds
        assert main(["nested", path, "--cantor", "--out", str(tmp_path)]) == 1
        assert main(["nested", path, "--out", str(tmp_path)]) == 0

    def test_an_expectation_does_not_carry_over(self, tmp_path):
        argv = ["check", "--space", "vec3-p1", "--props", "A", "--out", str(tmp_path)]
        assert main(argv + ["--expect", "A=fails"]) == 0
        assert main(argv) == 1
        report = json.loads((tmp_path / "check-vec3-p1.json").read_text())
        assert report["reports"][0]["expected"] == "holds"
