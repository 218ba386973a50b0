"""Builders for the two canonical sharpness examples.

The cumulative counterexample glues pieces 0, c2*l2^n, c2*l2^n + c3*l3^n, ...
clockwise around the origin, where l_i is the line y + a_i*x = 0 and the
coefficients c_i ~ 1 / (a_i * prod_(j != i) (a_i - a_j)) make the final piece
rejoin the zero piece C^(n-1)-smoothly across the x-axis.  The result is
C^(n-1) everywhere but loses exactly one order at the origin.  Each piece
is the one before plus c_i*l_i^n, that jump written as one integer frame
over q_i^n for a_i = p_i/q_i, so the build multiplies no polynomials.
What it costs is decided here too: `counterexample_digits` bounds the digits
of every integer the build would hold, so a caller can refuse slopes first.

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
from .poly import BiPoly, check_exponents, line_power, linear_form_power  # noqa: F401
from .rational import exact, primitive
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

    def __post_init__(self):
        object.__setattr__(self, "slopes", tuple(self.slopes))
        object.__setattr__(self, "coeffs", tuple(self.coeffs))


def _distinct_nonzero(slopes: Sequence) -> list[Fraction | int]:
    values = [exact(s) for s in slopes]
    if any(v == 0 for v in values):
        raise InvalidSlopesError("slopes must be nonzero (the x-axis is already a gluing line)")
    if len(set(values)) != len(values):
        raise InvalidSlopesError("slopes must be pairwise distinct")
    return values


def _checked_slopes(slopes: Sequence, n: int) -> list[Fraction | int]:
    if n < 1:
        raise InvalidSlopesError("order n must be at least 1 (n = 0 has no polynomial example)")
    check_exponents(n)
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


def _coeffs(values: list[Fraction | int]) -> list[int]:
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


def counterexample_digits(slopes: Sequence, n: int) -> int:
    """An upper bound on the decimal digits of every integer in
    `build_counterexample(slopes, n)`, after the same check of the slopes.

    By Cramer's rule the coefficient c_i divides q_i^n times the minor
    prod_(j != i) p_j * prod_(j < k; j, k != i) (p_k q_j - p_j q_k) of
    `_coeffs`, and each piece coefficient is C(n, t) times a sum over i of
    q_i^(n-t) p_i^t times the minor, over a denominator that divides the
    coefficients' gcd.  Each factor below 2^b counts b bits.
    """
    pairs = [(a.numerator, a.denominator) for a in _checked_slopes(slopes, n)]
    own = [abs(p).bit_length() for p, _ in pairs]
    rows = own[:]  # row i: the bits of p_i and of every difference with slope i
    for i, (p, q) in enumerate(pairs):
        for j, (p_j, q_j) in enumerate(pairs[:i]):
            bits = abs(p * q_j - p_j * q).bit_length()
            rows[i] += bits
            rows[j] += bits
    every_factor = (sum(rows) + sum(own)) // 2  # each p_j once, each difference once
    minor_times_power = max(n * max(abs(p), q).bit_length() - row for (p, q), row in zip(pairs, rows))
    bits = every_factor + minor_times_power + comb(n, n // 2).bit_length() + (n + 1).bit_length()
    return bits * 30103 // 100000 + 1  # 0.30103 > log10(2)


def _lower_halfplane_ray(slope: Fraction | int) -> Ray:
    """The ray of the line y = -slope*x that points into the open lower half-plane."""
    if slope > 0:
        return Ray(1, -slope)
    return Ray(-1, slope)


def fan_from_slopes(slopes: Sequence) -> FanPartition:
    """Fan of the positive x-axis plus the lower-half-plane ray of each slope line."""
    return _slope_fan(_distinct_nonzero(slopes))


def _slope_fan(values: list[Fraction | int]) -> FanPartition:
    """`fan_from_slopes` of already checked slopes."""
    return build_fan([Ray(1, 0)] + [_lower_halfplane_ray(a) for a in values])


def build_counterexample(slopes: Sequence, n: int) -> CounterexampleSpec:
    """Build the degree-n spline that is C^(n-1) everywhere but not C^n at 0.

    The slopes are taken in the fan's clockwise order of their
    lower-half-plane rays; the cumulative pieces only glue correctly when
    consecutive pieces sit in consecutive sectors.

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
    for coeff, slope in zip(coeffs, values):
        p, q = slope.numerator, slope.denominator
        jump = BiPoly._from_frame({(t, n - t): coeff * v for t, v in enumerate(line_power(p, q, n))}, q**n)
        pieces.append(pieces[-1] + jump)
    if not all(coeffs) or list(pieces[-1].integer_frame()[0]) != [(0, n)]:
        raise AssertionError("construction must be exactly C^(n-1) globally")
    spline = PiecewisePoly(fan=fan, pieces=tuple(pieces))
    return CounterexampleSpec(
        n=n, slopes=tuple(values), coeffs=tuple(coeffs), spline=spline
    )


def default_extra_slopes(n: int) -> list[int]:
    """0, 1, -1, 2, -2, ... as convenient distinct extra-ray slopes."""
    return [(i + 1) // 2 * (-1) ** (i + 1) for i in range(n)]


def build_halfplane_example(n: int, extra_ray_slopes: Sequence | None = None) -> PiecewisePoly:
    """y^(n+1) above the x-axis, zero below, with n extra rays mixed in.

    Each extra slope s contributes the upper-half-plane ray (s, 1), so no
    extra ray can land on the x-axis and no sector straddles it.  The fan's
    rays are therefore always (1, 0), then (-1, 0), then the extra rays
    clockwise: sector 0 is the lower half-plane and every later sector lies
    above the axis.  The result is C^n everywhere and exactly C^n at the
    origin: the collinear pair of x-axis rays suppresses the supersmoothness
    gain.
    """
    if n < 0:
        raise InvalidSlopesError("n must be nonnegative")
    check_exponents(n)
    slopes = [exact(s) for s in (default_extra_slopes(n) if extra_ray_slopes is None else extra_ray_slopes)]
    if len(slopes) != n:
        raise InvalidSlopesError(f"half-plane example of order {n} needs {n} extra slopes, got {len(slopes)}")
    if len(set(slopes)) != len(slopes):
        raise InvalidSlopesError("extra slopes must be pairwise distinct")
    rays = [Ray(1, 0), Ray(-1, 0)] + [Ray(s, 1) for s in slopes]
    pieces = (BiPoly.zero(),) + (BiPoly({(0, n + 1): 1}),) * (n + 1)
    return PiecewisePoly(fan=build_fan(rays), pieces=pieces)
