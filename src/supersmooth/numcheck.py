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

Cost: each call builds one stencil plan (step vectors, spans 2h and the
Richardson stage factors), so with S samples per ray and L levels,
verify_ray_lemma evaluates each field S*(L+2) times per ray and spends
O(L^2) float operations per sample on the extrapolation.
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
# The central stencil's last Richardson factor 2.0**(2*(levels - 1)) must be finite.
MAX_RICHARDSON_LEVELS = (sys.float_info.max_exp + 1) // 2


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
        # Richardson factors and stencil steps must be finite, and each
        # h_i = base_step / 2**i normal, or halving it is not exact.  (A level
        # count may have too many digits for str(), so it is not printed.)
        if self.richardson_levels > MAX_RICHARDSON_LEVELS:
            raise DomainError(f"richardson_levels must be at most {MAX_RICHARDSON_LEVELS}")
        if not math.isfinite(2.0 * self.base_step):
            raise DomainError(f"base_step must be at most half the largest float, not {self.base_step!r}")
        if math.ldexp(self.base_step, 1 - self.richardson_levels) < sys.float_info.min:
            raise DomainError(
                f"base_step / 2**(richardson_levels - 1) must be a normal float, not "
                f"{self.base_step!r} / 2**{self.richardson_levels - 1}"
            )


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


def _non_finite(value, x, y) -> EvaluationError:
    return EvaluationError(f"function returned non-finite value {value!r} at ({x}, {y})")


def _finite_estimate(value: float, x, y) -> float:
    """`value`, an extrapolated derivative, unless the stage factors 2^p of many levels overflowed it."""
    if not math.isfinite(value):
        raise EvaluationError(f"extrapolated derivative is non-finite ({value!r}) at ({x}, {y}); use fewer levels")
    return value


def _eval(f: Field, x: float, y: float) -> float:
    value = f(x, y)
    if not math.isfinite(value):
        raise _non_finite(value, x, y)
    return value


def _stages(error_powers) -> list[tuple[float, float]]:
    """Richardson stage s kills the h^p term, p the s-th error power: (2^p, 2^p - 1) per stage."""
    return [(2.0**p, 2.0**p - 1.0) for p in error_powers]


def _extrapolate(estimates: list[float], stages) -> float:
    """Richardson-extrapolate, in place, estimates taken at successively halved steps.

    The answer is left in estimates[-1].  Each stage runs from the last index
    down, so estimates[i - 1] still holds the previous stage's value.  Returns
    the last stage's change of estimates[-1] (infinite when there is no stage).
    """
    last = len(estimates) - 1
    previous = math.inf
    for stage, (factor, denominator) in enumerate(stages, 1):
        previous = estimates[last]
        for i in range(last, stage - 1, -1):
            estimates[i] = (factor * estimates[i] - estimates[i - 1]) / denominator
    return abs(estimates[last] - previous) if stages else math.inf


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


def _stencil_plan(unit: tuple[float, float], cfg: NumericConfig):
    """The forward stencil along `unit`, built once a call: the first far step
    2h_0*u, then (h_i*u, 2h_i) per level, and the Richardson stages of the
    stencil's error series h^2, h^3, h^4, ..."""
    ux, uy = unit
    offsets = _offsets(cfg)
    far_step = (offsets[0] * ux, offsets[0] * uy)
    return far_step, [((h * ux, h * uy), 2.0 * h) for h in offsets[1:]], _stages(range(2, len(offsets)))


def _one_sided(f: Field, px: float, py: float, plan) -> tuple[float, float, float]:
    """f(P), then what `one_sided_directional_derivative` returns, from one set of evaluations."""
    (far_x, far_y), levels, stages = plan
    isfinite = math.isfinite
    f0 = f(px, py)
    if not isfinite(f0):
        raise _non_finite(f0, px, py)
    x, y = px + far_x, py + far_y
    far = f(x, y)
    if not isfinite(far):
        raise _non_finite(far, x, y)
    minus_3f0 = -3.0 * f0
    estimates = []
    for (sx, sy), span in levels:
        x, y = px + sx, py + sy
        near = f(x, y)
        if not isfinite(near):
            raise _non_finite(near, x, y)
        estimates.append((minus_3f0 + 4.0 * near - far) / span)
        far = near
    delta = _extrapolate(estimates, stages)
    return f0, _finite_estimate(estimates[-1], px, py), delta


def one_sided_directional_derivative(f: Field, point, direction,
                                     cfg: NumericConfig = NumericConfig()) -> tuple[float, float]:
    """One-sided derivative of f at `point` along the unit vector of `direction`.

    Richardson-extrapolates the second-order forward stencil
    (-3f(P) + 4f(P+h*u) - f(P+2h*u)) / (2h) over halved steps h; the
    returned error estimate is the last extrapolation delta (infinite when
    a single level leaves nothing to compare).
    """
    px, py = point
    return _one_sided(f, px, py, _stencil_plan(_unit(direction), cfg))[1:]


def _central_partial(f: Field, px: float, py: float, axis: int, steps, stages) -> float:
    """Central-difference partial over (h, 2h) per level, Richardson (error powers h^2, h^4, ...)."""
    isfinite = math.isfinite
    estimates = []
    for h, span in steps:
        xp, yp, xm, ym = (px + h, py, px - h, py) if axis == 0 else (px, py + h, px, py - h)
        plus = f(xp, yp)
        if not isfinite(plus):
            raise _non_finite(plus, xp, yp)
        minus = f(xm, ym)
        if not isfinite(minus):
            raise _non_finite(minus, xm, ym)
        estimates.append((plus - minus) / span)
    _extrapolate(estimates, stages)
    return _finite_estimate(estimates[-1], px, py)


def estimate_gradient(f: Field, point, cfg: NumericConfig = NumericConfig()) -> tuple[float, float]:
    """Two-sided gradient estimate; requires f on a full neighborhood of the point."""
    steps = [(h, 2.0 * h) for h in _offsets(cfg)[1:]]
    stages = _stages(range(2, 2 * cfg.richardson_levels, 2))
    px, py = point
    return (_central_partial(f, px, py, 0, steps, stages), _central_partial(f, px, py, 1, steps, stages))


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
    ux, uy = _unit(ray)
    # The stencil steps along the unit vector normalised once more, as
    # `one_sided_directional_derivative(f, point, unit)` does; the second
    # normalisation moves some directions by an ulp, so it stays.
    plan = _stencil_plan(_unit((ux, uy)), cfg)
    samples = cfg.samples_per_ray
    value_gap = 0.0
    deriv_gap = 0.0
    for k in range(samples):
        t = RAY_EXTENT * k / samples
        px, py = t * ux, t * uy
        f0, df, _ = _one_sided(f, px, py, plan)
        g0, dg, _ = _one_sided(g, px, py, plan)
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
