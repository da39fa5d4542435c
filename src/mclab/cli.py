"""Command-line front end.

Subcommands:
  reproduce <fixture>      run a named exact certificate fixture
  check                    run property suites against expectations
  fixedpoint <spec.json>   verify a mapping and solve for its fixed point
  nested <family.json>     find a common point of a nested ball family

Exit codes: 0 success or expected outcome, 1 property or solver failure,
2 usage or configuration error.  A command raises ConfigError for a bad
input before it writes any report, or for an --out it cannot write; `main`
alone turns that into exit 2.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .arith import parse_float, parse_scalar, parse_vector
from .config import RunConfig, load_config, read_json
from .convexsets import MAX_BOX_AXES, MAX_SIMPLEX_AXES, MidConvention
from .errors import ConfigError, DomainEscape, MclabError, SolverFailure
from .fixedpoint import (
    HybridParams,
    find_fixed_point,
    mapping_from_json,
    verify_hybrid,
)
from .fixtures import FIXTURES
from .nested import cantor_point, common_point, family_from_json, max_violation
from .properties import (
    PROPERTY_NAMES,
    check_homogeneity,
    check_menger_convex,
    check_property,
)
from .reports import fmt_value, write_reports
from .sampling import SamplePlan
from .spaces import VECTOR, check_point, space_from_id

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the names --props and --expect accept
CHECK_PROPS = ("menger", *PROPERTY_NAMES, "homogeneity")


def _plan_from_config(cfg: RunConfig, count=None) -> SamplePlan:
    return SamplePlan(
        count=count or cfg.sample_count,
        seed=cfg.seed,
        coord_denominator=cfg.coord_denominator,
        t_denominator=cfg.t_denominator,
    )


def _finish(cfg: RunConfig, name: str, payload, md: str, line: str, ok: bool) -> int:
    """Write the JSON and Markdown reports `name`, print the summary line and
    return the exit code of a command that succeeded if `ok`.  An --out
    that cannot be made or written is a ConfigError."""
    try:
        write_reports(cfg.out_dir, name, payload, md)
    except OSError as exc:
        raise ConfigError(f"cannot write reports to {cfg.out_dir!r}: {exc}") from exc
    print(line)
    return EXIT_OK if ok else EXIT_FAIL


def _fail(cfg: RunConfig, name: str, payload: dict, exc: MclabError, md: str) -> int:
    """Write the reports `name` of a run that failed with `exc`: its message
    as `error`, and its `certificate` when it has one."""
    payload["error"] = str(exc)
    cert = getattr(exc, "certificate", None)
    if cert:
        payload["certificate"] = cert
    return _finish(cfg, name, payload, md, f"{name}: {exc}", False)


def cmd_reproduce(args, cfg: RunConfig) -> int:
    if args.fixture not in FIXTURES:
        raise ConfigError(f"unknown fixture {args.fixture!r}; known: {sorted(FIXTURES)}")
    report = FIXTURES[args.fixture]()
    payload = {"config": cfg.resolved(), "report": report.to_json()}
    lines = [f"# Fixture {report.name}", "", report.description, ""]
    for c in report.claims:
        mark = "PASS" if c.ok else "FAIL"
        lines.append(f"- [{mark}] {c.label}: {fmt_value(c.lhs)} vs {fmt_value(c.rhs)}")
    lines.append("")
    lines.append(f"Overall: {'PASS' if report.ok else 'FAIL'}")
    md = "\n".join(lines) + "\n"
    line = f"{report.name}: {'PASS' if report.ok else 'FAIL'}"
    return _finish(cfg, f"reproduce-{report.name}", payload, md, line, report.ok)


def _parse_expectations(text: str | None, props):
    """--expect as {name: outcome}; every name must be one of the --props."""
    out = {}
    if not text:
        return out
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad expectation {part!r}; use prop=holds|fails|refused")
        name, value = part.split("=", 1)
        value = value.strip().lower()
        if value not in ("holds", "fails", "refused"):
            raise ConfigError(f"bad expected outcome {value!r}")
        name = name.strip()
        if name not in props:
            raise ConfigError(f"--expect names {name!r}, which --props does not run")
        if name in out:
            raise ConfigError(f"--expect names {name!r} twice")
        out[name] = value
    return out


def cmd_check(args, cfg: RunConfig) -> int:
    space = space_from_id(args.space)
    if space.carrier != VECTOR:
        # the samplers draw coordinate vectors; function spaces are library-only
        raise ConfigError(f"check needs a vector space id (vecN-pP), not {space.id!r}")
    if space.p == 1 and space.dim > MAX_SIMPLEX_AXES:
        # d_1 midpoint sets are sampled at their up to 2^dim vertices
        raise ConfigError(f"check supports d_1 up to dimension {MAX_SIMPLEX_AXES}")
    if space.p == math.inf and space.dim > MAX_BOX_AXES:
        # d_inf midpoint boxes are sampled at their up to 3^dim grid points
        raise ConfigError(f"check supports d_inf up to dimension {MAX_BOX_AXES}")
    prop_list = [p.strip() for p in args.props.split(",") if p.strip()]
    if not prop_list:
        # a suite verdict needs evidence: an empty suite would print PASS
        raise ConfigError("--props names no property")
    for i, prop in enumerate(prop_list):
        if prop not in CHECK_PROPS:
            raise ConfigError(f"unknown property {prop!r}")
        if prop in prop_list[:i]:
            raise ConfigError(f"--props names {prop!r} twice")
    expectations = _parse_expectations(args.expect, prop_list)
    conv = MidConvention(cfg.convention)
    plan = _plan_from_config(cfg)
    ok = True
    lines = [f"# Property suite on {space.id}", ""]
    entries = []
    for prop in prop_list:
        if prop == "menger":
            v = check_menger_convex(space, plan, tol=cfg.tol)
        elif prop == "homogeneity":
            v = check_homogeneity(space, plan, tol=cfg.tol)
        else:
            v = check_property(
                space, prop, conv=conv, plan=plan, diam_tol=cfg.diam_tol, tol=cfg.tol
            )
        expected = expectations.get(prop, "holds")
        matched = v.outcome == expected
        ok = ok and matched
        mark = "PASS" if matched else "FAIL"
        lines.append(
            f"- [{mark}] {v.property}: {v.outcome} (expected {expected}), "
            f"samples={v.samples}"
        )
        entry = v.to_json()
        entry["space"] = space.id
        entry["expected"] = expected
        entry["matched"] = matched
        entry["seed"] = cfg.seed
        entries.append(entry)
    payload = {"config": cfg.resolved(), "space": space.id, "reports": entries}
    lines.append("")
    lines.append(f"Overall: {'PASS' if ok else 'FAIL'}")
    md = "\n".join(lines) + "\n"
    line = f"check {space.id}: {'PASS' if ok else 'FAIL'}"
    return _finish(cfg, f"check-{space.id}", payload, md, line, ok)


def cmd_fixedpoint(args, cfg: RunConfig) -> int:
    data = read_json(args.spec, "mapping spec")
    try:
        if not isinstance(data, dict):
            raise MclabError("a mapping spec is a JSON object")
        space = space_from_id(data.get("space", "vec2-p2"))
        if space.carrier != VECTOR or space.exact:
            # the solver samples float coordinate vectors
            raise MclabError(
                f"fixedpoint needs a float vector space id (vecN-pP), not {space.id!r}"
            )
        spec = mapping_from_json(data, space)
        params = HybridParams(
            Fraction(str(parse_scalar(data.get("alpha", 1)))),
            Fraction(str(parse_scalar(data.get("beta", 0)))),
        )
        x0 = parse_vector(data.get("x0", (0.0,) * space.dim), "x0", parse_float)
        check_point(space, x0)
    except (MclabError, ValueError) as exc:
        raise ConfigError(f"bad mapping spec: {exc}") from exc
    plan = _plan_from_config(cfg, count=min(cfg.sample_count, 2000))
    payload = {"config": cfg.resolved(), "space": space.id}
    try:
        verdict = verify_hybrid(space, spec, params, plan, tol=cfg.tol)
        payload["hybrid"] = verdict.to_json()
        if not verdict.holds:
            md = "# Fixed point\n\nHybrid inequality fails; witness recorded.\n"
            line = "fixedpoint: hybrid inequality FAILS"
            return _finish(cfg, "fixedpoint", payload, md, line, False)
        result = find_fixed_point(space, spec, x0, tol=cfg.fp_tol)
    except (SolverFailure, DomainEscape) as exc:
        md = f"# Fixed point\n\nSolver failed: {exc}\n"
        return _fail(cfg, "fixedpoint", payload, exc, md)
    payload["result"] = vars(result)
    md = (
        "# Fixed point\n\n"
        f"- point: {fmt_value(result.point)}\n"
        f"- residual: {fmt_value(result.residual)}\n"
        f"- functional value: {fmt_value(result.f_value)}\n"
        f"- orbit radius: {fmt_value(result.orbit_radius)}\n"
        f"- method: {result.method}\n"
        f"- converged: {result.converged}\n"
    )
    line = (
        f"fixedpoint: residual={result.residual:.3g} "
        f"{'OK' if result.converged else 'NOT CONVERGED'}"
    )
    return _finish(cfg, "fixedpoint", payload, md, line, result.converged)


def cmd_nested(args, cfg: RunConfig) -> int:
    space = space_from_id(args.space)
    data = read_json(args.family, "family")
    try:
        family = family_from_json(data, space)
    except MclabError as exc:
        raise ConfigError(f"cannot read family: {exc}") from exc
    payload = {"config": cfg.resolved(), "space": space.id}
    try:
        if args.cantor:
            point = cantor_point(space, family, tol=cfg.fp_tol)
        else:
            point = common_point(space, family, tol=cfg.fp_tol)
    except MclabError as exc:
        md = f"# Nested family\n\nFailed: {exc}\n"
        return _fail(cfg, "nested", payload, exc, md)
    violation, _ = max_violation(space, family, point)
    payload["result"] = {"point": list(point), "max_violation": violation}
    md = (
        "# Nested family\n\n"
        f"- common point: {fmt_value(point)}\n"
        f"- max constraint violation: {fmt_value(violation)}\n"
    )
    line = f"nested: common point found, violation={float(violation):.3g}"
    return _finish(cfg, "nested", payload, md, line, True)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="RNG seed override")
    common.add_argument("--out", help="output directory for reports")

    parser = argparse.ArgumentParser(
        prog="mclab",
        description="metric-convexity laboratory: certificates, property suites, fixed points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", parents=[common], help="run a named certificate fixture")
    p.add_argument("fixture")

    p = sub.add_parser(
        "check", parents=[common], help="run property checkers against expectations"
    )
    p.add_argument("--space", required=True, help="space id, e.g. vec3-p2")
    p.add_argument(
        "--props",
        default="menger,A,B,Bprime,Bdoubleprime,C",
        help=f"comma list from {','.join(CHECK_PROPS)}",
    )
    p.add_argument(
        "--expect", help="expected outcomes by --props name, e.g. menger=holds,A=fails"
    )

    p = sub.add_parser("fixedpoint", parents=[common], help="verify a mapping and solve")
    p.add_argument("spec", help="mapping spec JSON file")

    p = sub.add_parser(
        "nested", parents=[common], help="common point of a nested ball family"
    )
    p.add_argument("family", help="family JSON file")
    p.add_argument("--space", default="vec2-p2")
    p.add_argument("--cantor", action="store_true", help="require vanishing diameters")
    return parser


# built by the first call of main and kept: parse_args keeps no state
# between calls, and building on import would slow every import
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # the one input boundary: a bad flag, config value, space id, spec,
    # family or --out raises ConfigError
    try:
        cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
        if args.command == "reproduce":
            return cmd_reproduce(args, cfg)
        if args.command == "check":
            return cmd_check(args, cfg)
        if args.command == "fixedpoint":
            return cmd_fixedpoint(args, cfg)
        return cmd_nested(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
