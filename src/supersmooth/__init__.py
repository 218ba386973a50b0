"""Exact supersmoothness analysis for piecewise polynomials over fans of rays.

The package answers three kinds of questions exactly, in rational
arithmetic: how smoothly the pieces of a fan spline join across each ray
and at the vertex; what the dimension of a smooth spline space over a fan
is; and how to build the sharp examples (the cumulative counterexample that
is C^(n-1) everywhere but not C^n at the vertex, and the half-plane example
showing collinear rays void the vertex gain).  A small floating-point
module verifies the curve-gluing statements for black-box functions.

The namespace is lazy (PEP 562): `import supersmooth` loads this module
alone, and each public name in `_EXPORTS` imports its module on first
access, as does `supersmooth.<module>`.  So `numcheck` and `operators` load
only when one of their names is read; `supersmooth.cli`, which imports the
modules its commands run, loads neither (its `demo <fixture>` imports
`numcheck` when it runs).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "CounterexampleSpec", "build_counterexample", "build_halfplane_example", "counterexample_coeffs",
        "counterexample_digits", "default_extra_slopes", "fan_from_slopes",
    ), "construct"),
    **dict.fromkeys(("sample_spline_space", "spline_space_basis", "spline_space_dimension"), "dimension"),
    **dict.fromkeys((
        "ArityError", "DomainError", "DuplicateRayError", "EvaluationError", "FanSizeError",
        "InvalidDirectionError", "InvalidSlopesError", "MissingDirectionError", "OriginSectorError",
        "RationalParseError", "SchemaError", "SingularDecompositionError",
    ), "errors"),
    **dict.fromkeys(("FanPartition", "Ray", "build_fan", "decompose_direction", "locate_sector"), "fan"),
    **dict.fromkeys(("nullspace", "rank"), "linalg"),
    **dict.fromkeys((
        "CornerGradientReport", "CurveGluing", "NumericConfig", "PiecewiseField", "RayLemmaFixture",
        "RayLemmaReport", "WitnessReport", "corner_witness_check", "estimate_gradient", "get_fixture",
        "one_sided_directional_derivative", "verify_corner_gradient", "verify_field_rays", "verify_ray_lemma",
    ), "numcheck"),
    **dict.fromkeys(("OperatorPoly", "PowerOperatorExpansion", "apply_operator", "expand_power_operator"), "operators"),
    **dict.fromkeys(
        ("BiPoly", "X", "Y", "directional_derivative", "linear_form_power", "restrict_to_ray"), "poly"
    ),
    **dict.fromkeys(("format_rational", "parse_rational"), "rational"),
    **dict.fromkeys((
        "decode_document", "decode_spline", "encode_counterexample", "encode_spline", "render_grid_csv",
        "sample_grid",
    ), "serialize"),
    **dict.fromkeys((
        "INFINITE", "NOT_CONTINUOUS", "PiecewisePoly", "SmoothnessReport", "format_order",
        "global_smoothness_order", "origin_smoothness_order", "render_report", "smoothness_across_ray",
        "smoothness_order_of_difference", "supersmoothness_verdict",
    ), "spline"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """A public name or a package module, imported on first access; the name is then bound here."""
    if name in _EXPORTS:
        value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        return value
    if name in _EXPORTS.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
