"""The public names of the `mclab` package, pinned: adding or removing one
is an edit of this list."""
from __future__ import annotations

import types

import mclab

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
    "diameter",
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
    "midpoint_map",
    "midpoint_set",
    "orbit",
    "pl_distance",
    "poly_fn",
    "segment",
    "semigroup_compose",
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
