"""The public names of the `mclab` package and the options of its
callables, pinned: adding or removing a name or an option is an edit of
these lists."""
from __future__ import annotations

import ast
import dataclasses
import enum
import inspect
import types
from collections import Counter
from pathlib import Path

import mclab
import mclab.config

PUBLIC_NAMES = [
    "Affine",
    "AsymptoticFunctional",
    "Box",
    "BoxProjection",
    "CappedSimplex",
    "Composition",
    "ConfigError",
    "DimensionMismatch",
    "DomainEscape",
    "EmptySetError",
    "ExactArithmeticUnsupported",
    "FAILS",
    "FIXTURES",
    "FiniteSet",
    "FixedPointResult",
    "HOLDS",
    "HausdorffResult",
    "HybridParams",
    "InternalInconsistency",
    "MappingSpec",
    "MclabError",
    "MembershipError",
    "MetricBall",
    "MetricSpace",
    "MidConvention",
    "NestedFamily",
    "NestingError",
    "PiecewisePoly",
    "PropertyVerdict",
    "REFUSED",
    "Rotation",
    "SamplePlan",
    "Segment",
    "SetUnion",
    "Singleton",
    "SolverFailure",
    "UniqueMidpointUndefined",
    "WholeSpace",
    "asymptotic_center",
    "build_shrinking_family",
    "cantor_point",
    "check_betweenness",
    "check_diameter_strict",
    "check_homogeneity",
    "check_menger_convex",
    "check_property",
    "common_point",
    "constant_fn",
    "directed_hausdorff",
    "distance",
    "distance_table",
    "distances",
    "estimate_uniform_modulus",
    "family_of_balls",
    "find_fixed_point",
    "hausdorff",
    "l1_function_space",
    "lifted_union",
    "linf_function_space",
    "make_asymptotic_functional",
    "midpoint_set",
    "orbit",
    "pl_distance",
    "poly_fn",
    "segment",
    "space_from_id",
    "sphere_equivalence_check",
    "unique_midpoint",
    "vector_space",
    "verify_hybrid",
]


def test_the_public_names_are_the_pinned_list():
    # submodules become package attributes once imported, so they are left out
    names = sorted(
        name
        for name, value in vars(mclab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


# every public function and class (the enum aside, whose call is the Enum
# machinery's) with its parameters, or dataclass fields, that have defaults
PUBLIC_OPTIONS = {
    "Affine": [],
    "AsymptoticFunctional": ["radius"],
    "Box": [],
    "BoxProjection": [],
    "CappedSimplex": [],
    "Composition": [],
    "ConfigError": [],
    "DimensionMismatch": [],
    "DomainEscape": [],
    "EmptySetError": [],
    "ExactArithmeticUnsupported": [],
    "FiniteSet": [],
    "FixedPointResult": [],
    "HausdorffResult": [],
    "HybridParams": [],
    "InternalInconsistency": [],
    "MappingSpec": [],
    "MclabError": [],
    "MembershipError": [],
    "MetricBall": [],
    "MetricSpace": [],
    "NestedFamily": [],
    "NestingError": [],
    "PiecewisePoly": [],
    "PropertyVerdict": ["samples", "max_slack", "witness", "plan", "convention", "reason"],
    "Rotation": ["center"],
    "SamplePlan": ["count", "seed", "coord_denominator", "t_denominator", "t_values", "anchor_x", "anchor_y"],
    "Segment": [],
    "SetUnion": [],
    "Singleton": [],
    "SolverFailure": ["certificate"],
    "UniqueMidpointUndefined": [],
    "WholeSpace": ["radius"],
    "asymptotic_center": [],
    "build_shrinking_family": [],
    "cantor_point": ["tol"],
    "check_betweenness": ["conv", "tol"],
    "check_diameter_strict": ["tol"],
    "check_homogeneity": ["cap", "tol"],
    "check_menger_convex": ["tol"],
    "check_property": ["conv", "plan", "diam_tol", "tol"],
    "common_point": ["tol"],
    "constant_fn": [],
    "directed_hausdorff": [],
    "distance": [],
    "distance_table": [],
    "distances": [],
    "estimate_uniform_modulus": [],
    "family_of_balls": [],
    "find_fixed_point": ["tol"],
    "hausdorff": [],
    "l1_function_space": ["exact"],
    "lifted_union": ["conv"],
    "linf_function_space": ["exact"],
    "make_asymptotic_functional": [],
    "midpoint_set": ["conv"],
    "orbit": [],
    "pl_distance": [],
    "poly_fn": ["c1", "c2"],
    "segment": ["conv"],
    "space_from_id": [],
    "sphere_equivalence_check": ["conv", "tol"],
    "unique_midpoint": [],
    "vector_space": ["exact"],
    "verify_hybrid": ["plan", "tol"],
}


def _options(value):
    # inspect reads no signature off a builtin exception type, but it reads
    # its __init__, which an exception class with options overrides
    if isinstance(value, type) and issubclass(value, BaseException):
        value = value.__init__
    params = inspect.signature(value).parameters.values()
    return [p.name for p in params if p.default is not p.empty]


def test_the_options_of_the_public_callables_are_the_pinned_map():
    values = {name: getattr(mclab, name) for name in PUBLIC_NAMES}
    options = {
        name: _options(value)
        for name, value in values.items()
        if callable(value) and not (isinstance(value, type) and issubclass(value, enum.Enum))
    }
    assert options == PUBLIC_OPTIONS


def test_no_module_imports_another_modules_private_name():
    # a private name is its module's own: a second caller elsewhere makes it
    # a second route to what the public name already does
    found = []
    for path in sorted(Path(mclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "mclab"
            ):
                found += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert found == []


def test_every_private_helper_has_a_caller_in_the_package():
    # a module-private function or class that only tests reach is a second
    # route left behind by a merge: each must be named in mclab outside its
    # own definition
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(mclab.__file__).parent.glob("*.py"))
    ]
    defs = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]

    def names(root):
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(root)
            if isinstance(node, (ast.Name, ast.Attribute))
        )

    everywhere = sum(map(names, trees), Counter())
    unused = [n.name for n in defs if everywhere[n.name] == names(n)[n.name]]
    assert defs and unused == []


def test_every_config_key_is_read_by_a_command():
    # every report writes the whole config, so a key that no command reads
    # is a false claim about the evidence of every report
    cli = Path(mclab.__file__).parent / "cli.py"
    read = {
        node.attr
        for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cfg"
    }
    keys = [f.name for f in dataclasses.fields(mclab.config.RunConfig)]
    assert keys and [k for k in keys if k not in read] == []


def test_reports_have_one_encoder():
    # `reports.stable_json_dumps` writes every report: no module calls
    # `json.dump` or `json.dumps`, and none defines a module-level `to_json`
    found = []
    for path in sorted(Path(mclab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}: json.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("dump", "dumps")
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ]
        found += [
            f"{path.name}: from json import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "json"
            for alias in node.names
            if alias.name in ("dump", "dumps")
        ]
        found += [
            f"{path.name}: def {node.name}"
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "to_json"
        ]
    assert found == []


def test_every_sampled_verdict_compares_through_the_space_limit():
    # each `first_failure` limit is `space.limit(...)`: 0 on an exact space,
    # so no exact slack can hold below a positive tolerance
    calls = [
        (path.name, node)
        for path in sorted(Path(mclab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "first_failure"
    ]
    found = []
    for name, call in calls:
        limit = call.args[2] if len(call.args) > 2 else None
        limit = next((k.value for k in call.keywords if k.arg == "limit"), limit)
        if not (
            isinstance(limit, ast.Call)
            and isinstance(limit.func, ast.Attribute)
            and limit.func.attr == "limit"
        ):
            found.append(f"{name}:{call.lineno}")
    assert calls and found == []
