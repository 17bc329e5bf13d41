"""Exact-arithmetic stability of point configurations and related geometry.

Everything computes over the rationals with no floating point anywhere:
span-criterion stability with an exhaustive oracle, alpha-slope
arithmetic for coherent-system types, the Gale transform with
self-association detection, and the symmetric cubic/quartic threefolds
with their singular loci, incidence combinatorics, and polar duality.
"""

from .cohsys import (
    EquivalenceReport,
    SystemType,
    alpha_slope,
    critical_values,
    destabilizing_example_config,
    equivalence_check,
    stabilization_threshold,
    subsystem_types_from_config,
    subsystem_violates,
)
from .errors import (
    DegenerateConfigurationError,
    FrameDegenerateError,
    RowEliminationError,
    SchemaError,
    SingularPointError,
    SizeMismatchError,
    StabgeomError,
    SubsetTooLargeError,
    UsageError,
)
from .exactgeom import (
    PointConfiguration,
    ProjectivePoint,
    ProjectiveTransform,
    format_scalar,
    parse_scalar,
    projectively_equivalent,
    rank,
    span_dim,
)
from .gale import (
    GaleData,
    conic_parameter_points,
    gale_transform,
    is_self_associated,
    on_smooth_conic,
)
from .gitstab import (
    StabilityClass,
    StabilityVerdict,
    Witness,
    classify,
    oracle_classify,
    worst_subspace,
)
from .modhyp import (
    AmbientPoint,
    IncidenceStructure,
    MatchingLine,
    SymmetricHypersurfaceModel,
    duality_check,
    igusa_lines,
    igusa_points,
    igusa_quartic,
    incidence_15_3,
    perfect_matchings,
    polar_map,
    restricted_hessian_rank,
    sample_segre_points,
    segre_cubic,
    segre_nodes,
    three_three_splits,
    verify_singular_point,
)
from .verify import CheckResult, VerificationReport, run_all

__version__ = "0.1.0"
