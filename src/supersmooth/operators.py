"""Commuting polynomials in directional-derivative symbols.

An OperatorPoly is a polynomial in `arity` commuting symbols, each of which
stands for the directional derivative along some ray.  The n-th power of
the derivative along a fan's first ray factors through the other rays: with
v1 = alpha_j*v2 + beta_j*vj for each later ray vj, the n-fold product

    (alpha_3 D2 + beta_3 D3) ... (alpha_{n+2} D2 + beta_{n+2} D_{n+2})

is, in closed form, the sum over the 2^n ways to pick alpha or beta in each
factor (Lai & Schumaker, Spline Functions on Triangulations, 2007, ch. 9):
each Dj with j >= 3 occurs in one factor only, so no two picks give the
same term.  It splits as D2 * (cofactor) + (cross coefficient) * D3...D_{n+2}
with no check, because the one pick that avoids D2 takes every beta: the
cross coefficient is the product of the betas.  `apply_operator` turns an
operator into derivatives of a BiPoly in one integer pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, perm, prod
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import ArityError, MissingDirectionError, SingularDecompositionError
from .fan import FanPartition, Ray, decompose_direction, line_count
# directional_derivative is unused here but stays bound: perfbench/spans.py
# patches supersmooth.operators.directional_derivative by name.
from .poly import BiPoly, check_exponents, directional_derivative, line_power  # noqa: F401
from .rational import clear_direction, exact


@dataclass(frozen=True, slots=True)
class OperatorPoly:
    """Polynomial in commuting derivative symbols with rational coefficients.

    Frozen; `terms` keeps the nonzero exact coefficients as given, keyed by
    exponent tuples of length `arity`, in a read-only mapping.  A mapping
    proxy neither pickles nor deep-copies, so copies rebuild from a dict.
    """

    arity: int
    terms: Mapping[tuple, Fraction | int] | None = None

    def __post_init__(self):
        check_exponents(self.arity)
        clean: dict[tuple, Fraction | int] = {}
        for exponents, coeff in (self.terms or {}).items():
            if len(exponents) != self.arity:
                raise ValueError(f"exponent tuple {exponents} does not match arity {self.arity}")
            check_exponents(*exponents)
            if exact(coeff):
                clean[tuple(exponents)] = coeff
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __reduce__(self):
        return OperatorPoly, (self.arity, dict(self.terms))

    def __repr__(self):
        return f"OperatorPoly(arity={self.arity}, terms={dict(self.terms)})"

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)


def apply_operator(op: OperatorPoly, directions: Sequence[Ray | None], p: BiPoly) -> BiPoly:
    """Substitute each symbol by the directional derivative along its ray.

    The symbols commute and D_v = v_x*d/dx + v_y*d/dy, so the operator is
    sigma(d/dx, d/dy), where sigma is the polynomial obtained by
    substituting the linear form dx_k*X + dy_k*Y for symbol k:

        op(p) = sum over (i, j) of sigma_ij * d^(i+j) p / dx^i dy^j.

    Both sums run in integers: each direction is cleared of denominators
    (m_k*(dx_k, dy_k) is integral), sigma is held over one common
    denominator and p over its own, so a term c*x^a*y^b of p meets sigma_ij
    as c*sigma_ij*perm(a, i)*perm(b, j) at x^(a-i)*y^(b-j), and the result
    is built from that integer frame.  `directions[k]` is the ray for
    symbol k, used with its raw components; a missing or None entry for a
    symbol the operator actually uses is an error, even when p is zero.
    """
    cleared: dict[int, tuple[int, int, int]] = {}
    powers: dict[tuple[int, int], list[int]] = {}
    forms = []
    for exponents, coeff in op.terms.items():
        form, denominator = [1], coeff.denominator
        for index, power in enumerate(exponents):
            if power == 0:
                continue
            if index not in cleared:
                if index >= len(directions) or directions[index] is None:
                    raise MissingDirectionError(f"no direction bound to symbol {index}")
                cleared[index] = clear_direction(*directions[index])
            ux, uy, m = cleared[index]
            if (index, power) not in powers:
                powers[index, power] = line_power(ux, uy, power)
            form = _times(form, powers[index, power])
            denominator *= m**power
        forms.append((form, coeff.numerator, denominator))
    common = lcm(*(den for _, _, den in forms))
    sigma: dict[tuple[int, int], int] = {}
    for form, numerator, den in forms:
        factor = numerator * (common // den)
        top = len(form) - 1
        for a, v in enumerate(form):
            sigma[a, top - a] = sigma.get((a, top - a), 0) + factor * v
    terms, p_common = p.integer_frame()
    out: dict[tuple[int, int], int] = {}
    for (i, j), s in sigma.items():
        if not s:
            continue
        for (a, b), c in terms.items():
            if a >= i and b >= j:
                key = (a - i, b - j)
                out[key] = out.get(key, 0) + c * s * perm(a, i) * perm(b, j)
    common *= p_common
    return BiPoly._from_frame(out, common)


def _times(left: list[int], right: list[int]) -> list[int]:
    """Product of two homogeneous polynomials given by x-exponent."""
    out = [0] * (len(left) + len(right) - 1)
    for a, u in enumerate(left):
        for b, v in enumerate(right):
            out[a + b] += u * v
    return out


@dataclass(frozen=True, slots=True)
class PowerOperatorExpansion:
    """Expansion of the n-th directional-derivative power over a fan.

    `product` is the expanded n-fold product; it equals
    symbol0 * lead_cofactor + cross_coefficient * (symbol1 * ... * symbol_n),
    where symbol k stands for the derivative along fan ray k+1.
    """

    product: OperatorPoly
    lead_cofactor: OperatorPoly
    cross_coefficient: Fraction


def expand_power_operator(fan: "FanPartition | Sequence[Ray]", n: int) -> PowerOperatorExpansion:
    """Expand the n-th power of the derivative along rays[0] through the others.

    Takes a collinear-free fan of exactly n+2 rays, or a plain ray sequence
    used in the given order (the identity is linear algebra on the rays and
    does not need them sorted).  Symbol k of the returned operators denotes
    the derivative along ray k+1.

    For each later ray j >= 2, symbol j-1 occurs only in the factor
    (alpha_j S0 + beta_j S_{j-1}), so each of the 2^n ways to pick alpha (0)
    or beta (1) per factor gives its own term, S0^(n - sum(picks)) times the
    S_{j-1}^pick_j, whose coefficient is the product of the picks.  The
    split needs no check: the one term without S0 picks every beta.
    """
    rays = fan.rays if isinstance(fan, FanPartition) else tuple(fan)
    k = len(rays)
    if k != n + 2:
        raise ArityError(f"order {n} needs a fan of {n + 2} rays, got {k}")
    check_exponents(n)
    if line_count(rays) < k:
        raise SingularDecompositionError("rays contain a collinear pair")
    pairs = [decompose_direction(rays[0], rays[1], ray) for ray in rays[2:]]
    terms = {
        (n - sum(picks),) + picks: prod((pair[pick] for pair, pick in zip(pairs, picks)), start=Fraction(1))
        for picks in product((0, 1), repeat=n)
    }
    lead = {(exponents[0] - 1,) + exponents[1:]: coeff for exponents, coeff in terms.items() if exponents[0]}
    return PowerOperatorExpansion(
        product=OperatorPoly(n + 1, terms),
        lead_cofactor=OperatorPoly(n + 1, lead),
        cross_coefficient=terms[(0,) + (1,) * n],
    )
