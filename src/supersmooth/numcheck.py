"""Floating-point verification of curve-gluing smoothness for black-box functions.

Curves are always graphs y = g(x); a gluing pairs a field above the graph
with a field below it and asks whether the glued function is differentiable
at a designated corner point P = (corner_x, g(corner_x)).  Three checks:

* verify_ray_lemma: two functions agreeing along a ray agree in their
  one-sided ray-direction derivative there.
* verify_corner_gradient: a continuous glue of two C^1 fields along a
  cornered curve forces matching gradients at the corner.
* corner_witness_check: a C^1 function vanishing on the curve with nonzero
  gradient at P certifies the curve is smooth there, so no witness can
  exist at a genuine corner.

Everything is estimated with finite differences plus Richardson
extrapolation; tolerances are absolute and assume O(1)-scaled inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, EvaluationError
from .fan import FanPartition

Field = Callable[[float, float], float]

# Sampling windows for O(1)-scaled fixtures: rays are sampled on t in
# [0, RAY_EXTENT), curves on x in [corner_x - CURVE_EXTENT, corner_x + CURVE_EXTENT].
RAY_EXTENT = 1.0
CURVE_EXTENT = 0.5


@dataclass(frozen=True, slots=True)
class NumericConfig:
    """Step sizes and thresholds for the finite-difference estimates."""

    base_step: float = 1e-3
    richardson_levels: int = 3
    tolerance: float = 1e-6
    samples_per_ray: int = 9

    def __post_init__(self):
        for name in ("base_step", "tolerance"):
            value = getattr(self, name)
            # The chained comparison is False for NaN, infinities and ints beyond float range.
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= sys.float_info.max:
                raise DomainError(f"{name} must be a finite positive number, not {value!r}")
        for name in ("richardson_levels", "samples_per_ray"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise DomainError(f"{name} must be an integer of at least 1, not {value!r}")


@dataclass(frozen=True, slots=True)
class CurveGluing:
    """Two fields glued along the graph y = g(x), with a designated corner."""

    g: Callable[[float], float]
    corner_x: float
    f_upper: Field
    f_lower: Field

    def corner(self) -> tuple[float, float]:
        return (self.corner_x, self.g(self.corner_x))


@dataclass(frozen=True, slots=True)
class PiecewiseField:
    """Black-box fields over a fan, one per sector (fields[j] on sector j)."""

    fan: FanPartition
    fields: tuple[Field, ...]

    def __post_init__(self):
        if len(self.fields) != len(self.fan.rays):
            raise DomainError("one field per sector required")


def _eval(f: Field, x: float, y: float) -> float:
    value = f(x, y)
    if not math.isfinite(value):
        raise EvaluationError(f"function returned non-finite value {value!r} at ({x}, {y})")
    return value


def _richardson(estimates: list[float], error_powers) -> tuple[float, float]:
    """Richardson-extrapolate estimates taken at successively halved steps.

    Stage s kills the h^p term, p the s-th entry of `error_powers`.  Returns
    the extrapolated value and the last extrapolation delta (infinite when a
    single estimate leaves nothing to compare).
    """
    levels = len(estimates)
    delta = math.inf
    for stage, power in zip(range(1, levels), error_powers):
        factor = 2.0**power
        next_row = [
            (factor * estimates[i] - estimates[i - 1]) / (factor - 1.0)
            for i in range(stage, levels)
        ]
        delta = abs(next_row[-1] - estimates[-1])
        estimates[stage:] = next_row
    return estimates[-1], delta


def _unit(direction) -> tuple[float, float]:
    """The unit vector of a nonzero direction, in floats."""
    ux, uy = map(float, direction)
    norm = math.hypot(ux, uy)
    if norm == 0.0:
        raise DomainError("direction must be nonzero")
    return (ux / norm, uy / norm)


def _offsets(cfg: NumericConfig) -> list[float]:
    """Stencil offsets 2h_0, h_0, h_1, ...: halving a normal float is exact, so
    each level's far point P + 2h_i*u is the previous level's near point."""
    return [2 * cfg.base_step] + [cfg.base_step / 2**i for i in range(cfg.richardson_levels)]


def _one_sided(f: Field, point, unit: tuple[float, float], offsets: list[float]) -> tuple[float, float, float]:
    """f(P), then what `one_sided_directional_derivative` returns, from one set of evaluations."""
    px, py = point
    ux, uy = unit
    f0 = _eval(f, px, py)
    values = [_eval(f, px + t * ux, py + t * uy) for t in offsets]
    estimates = [
        (-3.0 * f0 + 4.0 * near - far) / (2.0 * h)
        for far, near, h in zip(values, values[1:], offsets[1:])
    ]
    # Error series of the stencil: h^2, h^3, h^4, ...
    return (f0, *_richardson(estimates, range(2, len(offsets))))


def one_sided_directional_derivative(f: Field, point, direction,
                                     cfg: NumericConfig = NumericConfig()) -> tuple[float, float]:
    """One-sided derivative of f at `point` along the unit vector of `direction`.

    Richardson-extrapolates the second-order forward stencil
    (-3f(P) + 4f(P+h*u) - f(P+2h*u)) / (2h) over halved steps h; the
    returned error estimate is the last extrapolation delta (infinite when
    a single level leaves nothing to compare).
    """
    return _one_sided(f, point, _unit(direction), _offsets(cfg))[1:]


def _central_partial(f: Field, point, axis: int, cfg: NumericConfig) -> float:
    """Central-difference partial with Richardson (error powers h^2, h^4, ...)."""
    px, py = point
    levels = cfg.richardson_levels
    vals = []
    for i in range(levels):
        h = cfg.base_step / 2**i
        if axis == 0:
            vals.append((_eval(f, px + h, py) - _eval(f, px - h, py)) / (2.0 * h))
        else:
            vals.append((_eval(f, px, py + h) - _eval(f, px, py - h)) / (2.0 * h))
    return _richardson(vals, range(2, 2 * levels, 2))[0]


def estimate_gradient(f: Field, point, cfg: NumericConfig = NumericConfig()) -> tuple[float, float]:
    """Two-sided gradient estimate; requires f on a full neighborhood of the point."""
    return (_central_partial(f, point, 0, cfg), _central_partial(f, point, 1, cfg))


@dataclass(frozen=True, slots=True)
class RayLemmaReport:
    max_value_gap: float
    max_dirderiv_gap: float
    passed: bool


def verify_ray_lemma(f: Field, g: Field, ray, cfg: NumericConfig = NumericConfig()) -> RayLemmaReport:
    """Check that f and g agree on a ray together with their ray-direction derivatives.

    Only the direction along the ray is constrained; transversal mismatch is
    invisible to this check by design.
    """
    unit = _unit(ray)
    # The stencil steps along the unit vector normalised once more, as
    # `one_sided_directional_derivative(f, point, unit)` does; the second
    # normalisation moves some directions by an ulp, so it stays.
    step = _unit(unit)
    offsets = _offsets(cfg)
    value_gap = 0.0
    deriv_gap = 0.0
    for k in range(cfg.samples_per_ray):
        t = RAY_EXTENT * k / cfg.samples_per_ray
        point = (t * unit[0], t * unit[1])
        f0, df, _ = _one_sided(f, point, step, offsets)
        g0, dg, _ = _one_sided(g, point, step, offsets)
        value_gap = max(value_gap, abs(f0 - g0))
        deriv_gap = max(deriv_gap, abs(df - dg))
    passed = value_gap <= cfg.tolerance and deriv_gap <= cfg.tolerance
    return RayLemmaReport(max_value_gap=value_gap, max_dirderiv_gap=deriv_gap, passed=passed)


def verify_field_rays(field: PiecewiseField, cfg: NumericConfig = NumericConfig()) -> list[RayLemmaReport]:
    """Ray-lemma check along every ray of a piecewise field."""
    k = len(field.fan.rays)
    return [
        verify_ray_lemma(field.fields[(j - 1) % k], field.fields[j], field.fan.rays[j], cfg)
        for j in range(k)
    ]


def _curve_samples(gluing: CurveGluing, cfg: NumericConfig) -> list[tuple[float, float]]:
    count = 2 * cfg.samples_per_ray + 1
    step = 2.0 * CURVE_EXTENT / (count - 1)
    xs = [gluing.corner_x - CURVE_EXTENT + i * step for i in range(count)]
    return [(x, gluing.g(x)) for x in xs]


@dataclass(frozen=True, slots=True)
class CornerGradientReport:
    continuity_gap: float
    grad_upper: tuple[float, float]
    grad_lower: tuple[float, float]
    grad_gap: float
    passed: bool


def verify_corner_gradient(gluing: CurveGluing, cfg: NumericConfig = NumericConfig()) -> CornerGradientReport:
    """Check continuity along the curve and gradient agreement at the corner.

    Both fields are assumed C^1 on a full neighborhood, so central stencils
    apply.  For a continuous glue along a genuinely cornered curve the
    gradient gap must vanish; along a smooth curve it can stay far from 0.
    """
    continuity_gap = 0.0
    for point in _curve_samples(gluing, cfg):
        continuity_gap = max(
            continuity_gap, abs(_eval(gluing.f_upper, *point) - _eval(gluing.f_lower, *point))
        )
    corner = gluing.corner()
    grad_upper = estimate_gradient(gluing.f_upper, corner, cfg)
    grad_lower = estimate_gradient(gluing.f_lower, corner, cfg)
    grad_gap = math.hypot(grad_upper[0] - grad_lower[0], grad_upper[1] - grad_lower[1])
    passed = continuity_gap <= cfg.tolerance and grad_gap <= cfg.tolerance
    return CornerGradientReport(
        continuity_gap=continuity_gap,
        grad_upper=grad_upper,
        grad_lower=grad_lower,
        grad_gap=grad_gap,
        passed=passed,
    )


@dataclass(frozen=True, slots=True)
class WitnessReport:
    vanishes_on_curve: bool
    grad_norm_at_p: float
    is_witness: bool


def corner_witness_check(h: Field, gluing: CurveGluing,
                         cfg: NumericConfig = NumericConfig()) -> WitnessReport:
    """Decide whether h certifies smoothness of the curve at the corner point.

    A witness vanishes along the curve and has gradient norm above
    sqrt(tolerance) at P.  A candidate that fails to vanish on the curve is
    reported as invalid (is_witness False), not raised.
    """
    residual = max(abs(_eval(h, *point)) for point in _curve_samples(gluing, cfg))
    vanishes = residual <= cfg.tolerance
    grad = estimate_gradient(h, gluing.corner(), cfg)
    grad_norm = math.hypot(*grad)
    return WitnessReport(
        vanishes_on_curve=vanishes,
        grad_norm_at_p=grad_norm,
        is_witness=vanishes and grad_norm > math.sqrt(cfg.tolerance),
    )


# -- built-in fixtures -------------------------------------------------

@dataclass(frozen=True, slots=True)
class RayLemmaFixture:
    f: Field
    g: Field
    ray: tuple[float, float]


FIXTURES: dict[str, CurveGluing | RayLemmaFixture] = {
    "corner-quadratic": CurveGluing(
        g=abs,
        corner_x=0.0,
        f_upper=lambda x, y: y * y - x * x,
        f_lower=lambda x, y: 0.0,
    ),
    "smooth-parabola": CurveGluing(
        g=lambda x: x * x,
        corner_x=0.0,
        f_upper=lambda x, y: y - x * x,
        f_lower=lambda x, y: 0.0,
    ),
    "halfplane-n1": CurveGluing(
        g=lambda x: 0.0,
        corner_x=0.0,
        f_upper=lambda x, y: y * y,
        f_lower=lambda x, y: 0.0,
    ),
    "lemma-xy": RayLemmaFixture(
        f=lambda x, y: x * x,
        g=lambda x, y: x * x + x * y,
        ray=(1.0, 0.0),
    ),
}


def get_fixture(name: str):
    try:
        return FIXTURES[name]
    except KeyError:
        raise DomainError(f"unknown fixture {name!r}; known: {', '.join(sorted(FIXTURES))}") from None
