"""Builders for the two canonical sharpness examples.

The cumulative counterexample glues pieces 0, c2*l2^n, c2*l2^n + c3*l3^n, ...
clockwise around the origin, where l_i is the line y + a_i*x = 0 and the
coefficients c_i ~ 1 / (a_i * prod_(j != i) (a_i - a_j)) make the final piece
rejoin the zero piece C^(n-1)-smoothly across the x-axis.  The result is
C^(n-1) everywhere but loses exactly one order at the origin.

The half-plane example shows why collinear rays void the supersmoothness
gain: y^(n+1) above the x-axis against zero below, with n extra rays thrown
in, is C^n everywhere and gains nothing at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod
from typing import Sequence

from .errors import InvalidSlopesError
from .fan import FanPartition, Ray, build_fan
from .linalg import nullspace  # noqa: F401 -- unused; perfbench/spans.py patches it here
# linear_form_power is unused here but stays bound: perfbench/spans.py
# patches supersmooth.construct.linear_form_power by name.
from .poly import BiPoly, linear_form_power  # noqa: F401
from .rational import primitive
# The two orders are unused here (the build certifies them in closed form)
# but stay bound: perfbench/spans.py patches supersmooth.construct.<name>.
from .spline import PiecewisePoly, global_smoothness_order, origin_smoothness_order  # noqa: F401


@dataclass(frozen=True, slots=True)
class CounterexampleSpec:
    """A built counterexample spline plus the data that produced it."""

    n: int
    slopes: tuple[Fraction, ...]
    coeffs: tuple[int, ...]
    spline: PiecewisePoly


def _distinct_nonzero(slopes: Sequence) -> list[Fraction]:
    values = [Fraction(s) for s in slopes]
    if any(v == 0 for v in values):
        raise InvalidSlopesError("slopes must be nonzero (the x-axis is already a gluing line)")
    if len(set(values)) != len(values):
        raise InvalidSlopesError("slopes must be pairwise distinct")
    return values


def _checked_slopes(slopes: Sequence, n: int) -> list[Fraction]:
    if n < 1:
        raise InvalidSlopesError("order n must be at least 1 (n = 0 has no polynomial example)")
    values = _distinct_nonzero(slopes)
    if len(values) != n + 1:
        raise InvalidSlopesError(f"order {n} needs exactly {n + 1} slopes, got {len(values)}")
    return values


def counterexample_coeffs(slopes: Sequence, n: int) -> list[int]:
    """Primitive kernel vector of sum_i c_i a_i^s = 0 for s = 1..n.

    With w_i = c_i * a_i this is the n x (n+1) Vandermonde system
    sum_i w_i a_i^t = 0 for t = 0..n-1, whose kernel is spanned by the
    divided-difference weights w_i = 1 / prod_(j != i) (a_i - a_j).  For
    distinct nonzero slopes every entry is nonzero.
    """
    return _coeffs(_checked_slopes(slopes, n))


def _coeffs(values: list[Fraction]) -> list[int]:
    """`counterexample_coeffs` of already checked slopes, in integers.

    With a_i = p_i/q_i, a_i - a_j = (p_i q_j - p_j q_i)/(q_i q_j), so the
    weights are, up to the common positive factor prod_j q_j,
    q_i^n / (p_i * prod_(j != i) (p_i q_j - p_j q_i)).
    """
    n = len(values) - 1
    pairs = [(a.numerator, a.denominator) for a in values]
    denominators = [p * prod(p * q_j - p_j * q for p_j, q_j in pairs if (p_j, q_j) != (p, q)) for p, q in pairs]
    common = lcm(*denominators)
    return primitive([q**n * (common // den) for (_, q), den in zip(pairs, denominators)])


def _lower_halfplane_ray(slope: Fraction) -> Ray:
    """The ray of the line y = -slope*x that points into the open lower half-plane."""
    if slope > 0:
        return Ray(1, -slope)
    return Ray(-1, slope)


def fan_from_slopes(slopes: Sequence) -> FanPartition:
    """Fan of the positive x-axis plus the lower-half-plane ray of each slope line."""
    return _slope_fan(_distinct_nonzero(slopes))


def _slope_fan(values: list[Fraction]) -> FanPartition:
    """`fan_from_slopes` of already checked slopes."""
    return build_fan([Ray(1, 0)] + [_lower_halfplane_ray(a) for a in values])


def build_counterexample(slopes: Sequence, n: int) -> CounterexampleSpec:
    """Build the degree-n spline that is C^(n-1) everywhere but not C^n at 0.

    The slopes are taken in the fan's clockwise order of their
    lower-half-plane rays; the cumulative pieces only glue correctly when
    consecutive pieces sit in consecutive sectors.

    Piece k's coefficient of x^t*y^(n-t) is the sum over i <= k of
    c_i*comb(n, t)*(p_i/q_i)^t for slopes p_i/q_i, so each is one running
    Fraction per monomial, advanced by an integer over q_i^t.  Fraction
    addition reduces by the gcd of the two denominators, which is cheaper
    than reducing one common denominator lcm(q_i)^t per term when n is
    large and the q_i are many and distinct.

    The orders are certified in O(n), not recomputed.  Piece k is
    sum_(i <= k) c_i*(y + a_i*x)^n, so the jump across ray i is
    c_i*(y + a_i*x)^n; by the kernel conditions sum_i c_i*a_i^t = 0
    (t = 1..n) the last piece is (sum_i c_i)*y^n, its jump to piece 0 across
    the x-axis.  Nonzero c_i and a nonzero multiple of y^n as the last piece
    therefore make every per-ray order, the global order and the origin
    order (every jump from piece 0 is homogeneous of degree n) exactly n-1.
    Up to a nonzero scale sum_i c_i is the divided difference of 1/z,
    (-1)^n / prod_i a_i, so it never vanishes.
    """
    fan = _slope_fan(_checked_slopes(slopes, n))
    values = [Fraction(-ray.dy, ray.dx) for ray in fan.rays[1:]]
    coeffs = _coeffs(values)

    pieces = [BiPoly.zero()]
    running = [Fraction(0)] * (n + 1)
    for coeff, slope in zip(coeffs, values):
        p, q = slope.numerator, slope.denominator
        for t in range(n + 1):
            running[t] += Fraction(coeff * comb(n, t) * p**t, q**t)
        pieces.append(BiPoly._new({(t, n - t): v for t, v in enumerate(running) if v}))
    if not all(coeffs) or not running[0] or any(running[1:]):
        raise AssertionError("construction must be exactly C^(n-1) globally")
    spline = PiecewisePoly(fan=fan, pieces=tuple(pieces))
    return CounterexampleSpec(
        n=n, slopes=tuple(values), coeffs=tuple(coeffs), spline=spline
    )


def default_extra_slopes(n: int) -> list[int]:
    """0, 1, -1, 2, -2, ... as convenient distinct extra-ray slopes."""
    out: list[int] = []
    k = 0
    while len(out) < n:
        if k == 0:
            out.append(0)
        else:
            out.append(k)
            if len(out) < n:
                out.append(-k)
        k += 1
    return out


def build_halfplane_example(n: int, extra_ray_slopes: Sequence | None = None) -> PiecewisePoly:
    """y^(n+1) above the x-axis, zero below, with n extra rays mixed in.

    Each extra slope s contributes the upper-half-plane ray (s, 1), so no
    extra ray can land on the x-axis and no sector straddles it.  The result
    is C^n everywhere and exactly C^n at the origin: the collinear pair of
    x-axis rays suppresses the supersmoothness gain.
    """
    if n < 0:
        raise InvalidSlopesError("n must be nonnegative")
    slopes = [Fraction(s) for s in (default_extra_slopes(n) if extra_ray_slopes is None else extra_ray_slopes)]
    if len(slopes) != n:
        raise InvalidSlopesError(f"half-plane example of order {n} needs {n} extra slopes, got {len(slopes)}")
    if len(set(slopes)) != len(slopes):
        raise InvalidSlopesError("extra slopes must be pairwise distinct")
    rays = [Ray(1, 0), Ray(-1, 0)] + [Ray(s, 1) for s in slopes]
    fan = build_fan(rays)
    upper = BiPoly({(0, n + 1): 1})
    pieces = tuple(upper if _opens_into_upper_halfplane(r) else BiPoly.zero() for r in fan.rays)
    return PiecewisePoly(fan=fan, pieces=pieces)


def _opens_into_upper_halfplane(ray: Ray) -> bool:
    """Whether the sector opening clockwise at `ray` starts in the upper half-plane."""
    if ray.dy != 0:
        return ray.dy > 0
    return ray.dx < 0
