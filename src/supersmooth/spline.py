"""Smoothness analysis of piecewise polynomials over a fan.

Smoothness orders live on an enriched integer scale:

* nonnegative int  -- the usual C^r order,
* NOT_CONTINUOUS (-1) -- adjacent pieces do not even join continuously,
* INFINITE (float inf) -- the compared pieces are identical.

"C^r across a ray" means every partial derivative of the difference of the
two adjacent pieces up to total order r restricts to zero on the ray, which
for polynomials is divisibility of the difference by the (r+1)st power of
the ray's line form l = dy*x - dx*y.  The library computes that
multiplicity one way, by exact integer division of each homogeneous
component of the difference by l; the tests hold the all-partials
definition, differentiation across the line, a change of variables and
the Fraction difference as independent references.

"C^m at the origin" means all per-piece partial derivatives up to total
order m agree at the origin, that is, every jump across a ray starts at
total degree m+1 or later: each p_j - p_0 is a sum of such jumps, and each
jump is a difference of two p_j - p_0.  Identical pieces: INFINITE.

Both orders are read off each piece's integer frame (`BiPoly.integer_frame`,
its terms over the lcm D > 0 of their denominators), which is the form a
BiPoly is stored in, so reading it builds nothing.  A positive scale keeps
a jump's zeros, degrees and line multiplicities, so the jump b/Db - a/Da
across a ray is formed as b*Da - a*Db in integers, with no common
denominator, and one split by homogeneous degree reads both orders: a
verdict on k pieces of t terms costs k jumps of O(t) integer operations
and the line divisions, whose cost grows with the multiplicity found.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError
# locate_sector and restrict_to_ray are unused here but stay bound:
# perfbench/spans.py patches supersmooth.spline.<name> for both.
from .fan import FanPartition, Ray, locate_sector  # noqa: F401
from .poly import BiPoly, Monomial, restrict_to_ray  # noqa: F401

# Enriched smoothness scale: plain ints plus these two sentinels.  Both
# compare correctly under min() and <=, which is all the code relies on.
INFINITE = float("inf")
NOT_CONTINUOUS = -1

Order = int | float


def format_order(order) -> str:
    if order == INFINITE:
        return "infinite"
    if order < 0:
        return "not continuous"
    return str(order)


@dataclass(frozen=True, slots=True)
class PiecewisePoly:
    """A fan plus one polynomial piece per sector (pieces[j] lives on sector j)."""

    fan: FanPartition
    pieces: tuple[BiPoly, ...]

    def __post_init__(self):
        if not isinstance(self.pieces, tuple):
            object.__setattr__(self, "pieces", tuple(self.pieces))
        if len(self.pieces) != len(self.fan.rays):
            raise DomainError(
                f"{len(self.fan.rays)} rays need {len(self.fan.rays)} pieces, "
                f"got {len(self.pieces)}"
            )


def smoothness_order_of_difference(diff: BiPoly, ray) -> Order:
    """Largest r such that all partials of `diff` up to order r vanish on the ray.

    NOT_CONTINUOUS if the difference itself does not vanish, INFINITE if it
    is the zero polynomial.  The answer is one less than the multiplicity of
    the line form l = dy*x - dx*y in `diff`, with (dx, dy) the primitive
    integer direction of `ray`, read off `diff`'s integer frame.
    """
    return _integer_order(diff.integer_frame()[0], Ray(*ray))[0]


def _integer_order(terms: dict[Monomial, int], ray: Ray) -> tuple[Order, Order]:
    """Order across `ray` and lowest total degree less one of an integer polynomial.

    Since l is homogeneous, its multiplicity is the least one among the
    homogeneous components, each found by exact integer division (see
    `_line_multiplicity`) after the content is divided out.  The zero
    polynomial has no component, so both orders are INFINITE.
    """
    content = gcd(*terms.values())
    # components[s][i] is the coefficient of x^i y^(s-i), over the content
    components: dict[int, list[int]] = {}
    for (i, j), c in terms.items():
        row = components.get(i + j)
        if row is None:
            row = components[i + j] = [0] * (i + j + 1)
        row[i] = c // content
    least = INFINITE
    for coeffs in components.values():
        least = min(least, _line_multiplicity(coeffs, ray.dx, ray.dy))
    return least - 1, min(components, default=INFINITE) - 1


def _line_multiplicity(coeffs: list[int], dx: int, dy: int) -> int:
    """Multiplicity of l = dy*x - dx*y in sum_i coeffs[i] x^i y^(s-i).

    `coeffs` is a nonzero integer list and (dx, dy) is primitive.  On an
    axis l is a unit times x or y, so the multiplicity is the count of zero
    coefficients at that end.  Otherwise synthetic division gives the
    quotient sum_i b_i x^i y^(s-1-i) from a_i = dy*b_(i-1) - dx*b_i, that is
    b_i = (dy*b_(i-1) - a_i) / dx, and leaves the remainder check
    a_s = dy*b_(s-1).  Because l is primitive, Gauss's lemma makes any exact
    quotient integral, so an inexact step already means l does not divide.
    """
    if dx == 0 or dy == 0:
        end = coeffs if dx == 0 else reversed(coeffs)
        return next(n for n, a in enumerate(end) if a)
    count = 0
    while True:
        quotient = []
        b = 0
        for a in coeffs[:-1]:
            b, rest = divmod(dy * b - a, dx)
            if rest:
                return count
            quotient.append(b)
        if coeffs[-1] != dy * b:
            return count
        coeffs = quotient
        count += 1


def _jump_orders(spline: PiecewisePoly, ray_index: int) -> tuple[Order, Order]:
    """`_integer_order` of the jump between the two pieces along rays[ray_index]."""
    before, before_den = spline.pieces[ray_index - 1].integer_frame()
    after, after_den = spline.pieces[ray_index].integer_frame()
    # (before - after) * before_den * after_den, in integers
    jump = {mono: c * after_den for mono, c in before.items()}
    for mono, c in after.items():
        value = jump.get(mono, 0) - c * before_den
        if value:
            jump[mono] = value
        else:
            del jump[mono]  # only an existing term can cancel: c is nonzero
    return _integer_order(jump, spline.fan.rays[ray_index])


def smoothness_across_ray(spline: PiecewisePoly, ray_index: int):
    """Smoothness order between the two pieces adjacent along rays[ray_index]."""
    k = len(spline.fan.rays)
    if not 0 <= ray_index < k:
        raise DomainError(f"ray index {ray_index} out of range for {k} rays")
    return _jump_orders(spline, ray_index)[0]


def global_smoothness_order(spline: PiecewisePoly):
    """Min of the per-ray orders; NOT_CONTINUOUS if any ray fails order 0."""
    return min(smoothness_across_ray(spline, j) for j in range(len(spline.fan.rays)))


def origin_smoothness_order(spline: PiecewisePoly):
    """Largest m such that all per-piece partials up to order m agree at the origin.

    That is one less than the lowest total degree of any jump across a ray,
    or INFINITE when all pieces are identical.
    """
    return min(_jump_orders(spline, j)[1] for j in range(len(spline.fan.rays)))


@dataclass(frozen=True, slots=True)
class SmoothnessReport:
    """Per-ray orders, global and origin order, and the supersmoothness verdict.

    `theorem_applicable` is the fan-of-k-rays hypothesis: no collinear pair
    and global order at least k-2.  `supersmoothness_holds` is True when the
    origin order exceeds the global order (the extra derivative is present),
    None when the gain is absent but the hypothesis fails anyway, and False
    when the hypothesis holds and the gain is missing -- which would
    contradict the gluing theorem and so flags a bug.
    """

    per_ray_order: tuple[Order, ...]
    global_order: Order
    origin_order: Order
    theorem_applicable: bool
    supersmoothness_holds: bool | None


def supersmoothness_verdict(spline: PiecewisePoly) -> SmoothnessReport:
    """Compute all smoothness orders and the supersmoothness verdict."""
    k = len(spline.fan.rays)
    per_ray, lowest = zip(*(_jump_orders(spline, j) for j in range(k)))
    global_order = min(per_ray)
    origin_order = min(lowest)
    applicable = spline.fan.collinear_free and global_order >= k - 2
    if origin_order >= global_order + 1:  # the extra derivative; INFINITE gains on INFINITE
        holds = True
    elif applicable:
        holds = False
    else:
        holds = None
    return SmoothnessReport(
        per_ray_order=per_ray,
        global_order=global_order,
        origin_order=origin_order,
        theorem_applicable=applicable,
        supersmoothness_holds=holds,
    )


def render_report(report: SmoothnessReport) -> str:
    """Line-oriented text form used by the CLI `check` command."""
    lines = [
        f"ray {i}: order {format_order(order)}"
        for i, order in enumerate(report.per_ray_order)
    ]
    lines.append(f"global: {format_order(report.global_order)}")
    lines.append(f"origin: {format_order(report.origin_order)}")
    lines.append(f"theorem applicable: {'yes' if report.theorem_applicable else 'no'}")
    verdict = {True: "holds", False: "violated", None: "not applicable"}[report.supersmoothness_holds]
    lines.append(f"supersmoothness: {verdict}")
    return "\n".join(lines) + "\n"
