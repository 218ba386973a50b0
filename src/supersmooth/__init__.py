"""Exact supersmoothness analysis for piecewise polynomials over fans of rays.

The package answers three kinds of questions exactly, in rational
arithmetic: how smoothly the pieces of a fan spline join across each ray
and at the vertex; what the dimension of a smooth spline space over a fan
is; and how to build the sharp examples (the cumulative counterexample that
is C^(n-1) everywhere but not C^n at the vertex, and the half-plane example
showing collinear rays void the vertex gain).  A small floating-point
module verifies the curve-gluing statements for black-box functions.
"""

from .construct import (
    CounterexampleSpec,
    build_counterexample,
    build_halfplane_example,
    counterexample_coeffs,
    counterexample_digits,
    default_extra_slopes,
    fan_from_slopes,
)
from .dimension import sample_spline_space, spline_space_basis, spline_space_dimension
from .errors import (
    ArityError,
    DomainError,
    DuplicateRayError,
    EvaluationError,
    FanSizeError,
    InvalidDirectionError,
    InvalidSlopesError,
    MissingDirectionError,
    OriginSectorError,
    RationalParseError,
    SchemaError,
    SingularDecompositionError,
)
from .fan import (
    FanPartition,
    Ray,
    build_fan,
    decompose_direction,
    locate_sector,
)
from .linalg import nullspace, rank
from .numcheck import (
    CornerGradientReport,
    CurveGluing,
    NumericConfig,
    PiecewiseField,
    RayLemmaFixture,
    RayLemmaReport,
    WitnessReport,
    corner_witness_check,
    estimate_gradient,
    get_fixture,
    one_sided_directional_derivative,
    verify_corner_gradient,
    verify_field_rays,
    verify_ray_lemma,
)
from .operators import (
    OperatorPoly,
    PowerOperatorExpansion,
    apply_operator,
    expand_power_operator,
)
from .poly import (
    BiPoly,
    X,
    Y,
    directional_derivative,
    linear_form_power,
    restrict_to_ray,
)
from .rational import format_rational, parse_rational
from .serialize import (
    decode_document,
    decode_spline,
    encode_counterexample,
    encode_spline,
    render_grid_csv,
    sample_grid,
)
from .spline import (
    INFINITE,
    NOT_CONTINUOUS,
    PiecewisePoly,
    SmoothnessReport,
    format_order,
    global_smoothness_order,
    origin_smoothness_order,
    render_report,
    smoothness_across_ray,
    smoothness_order_of_difference,
    supersmoothness_verdict,
)

__version__ = "0.1.0"
