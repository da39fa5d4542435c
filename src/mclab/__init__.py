"""Metric-convexity laboratory.

Concrete metric spaces (rational/real vectors under d_p, piecewise
polynomials under integral and sup metrics), midpoint-set geometry with
exact witness certificates, Hausdorff distances, property checkers with
holds/fails/refused verdicts, generalized hybrid fixed points via
orbit-tail minimisation, and nested-intersection demonstrations.
"""

from .convexsets import (
    Box,
    CappedSimplex,
    FiniteSet,
    MetricBall,
    MidConvention,
    Segment,
    SetUnion,
    Singleton,
    lifted_union,
    midpoint_set,
    segment,
    sphere_equivalence_check,
    unique_midpoint,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainEscape,
    EmptySetError,
    ExactArithmeticUnsupported,
    InternalInconsistency,
    MclabError,
    MembershipError,
    NestingError,
    SolverFailure,
    UniqueMidpointUndefined,
)
from .fixedpoint import (
    Affine,
    AsymptoticFunctional,
    BoxProjection,
    Composition,
    FixedPointResult,
    HybridParams,
    MappingSpec,
    Rotation,
    WholeSpace,
    asymptotic_center,
    find_fixed_point,
    make_asymptotic_functional,
    orbit,
    verify_hybrid,
)
from .fixtures import FIXTURES
from .hausdorff import HausdorffResult, directed_hausdorff, hausdorff
from .nested import (
    NestedFamily,
    build_shrinking_family,
    cantor_point,
    common_point,
    family_of_balls,
)
from .properties import (
    check_betweenness,
    check_diameter_strict,
    check_homogeneity,
    check_menger_convex,
    check_property,
    estimate_uniform_modulus,
)
from .sampling import SamplePlan
from .spaces import (
    MetricSpace,
    PiecewisePoly,
    constant_fn,
    distance,
    distance_table,
    distances,
    l1_function_space,
    linf_function_space,
    pl_distance,
    poly_fn,
    space_from_id,
    vector_space,
)
from .verdicts import FAILS, HOLDS, REFUSED, PropertyVerdict

__version__ = "0.1.0"
