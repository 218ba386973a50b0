"""Commuting polynomials in directional-derivative symbols.

An OperatorPoly is a polynomial in `arity` commuting symbols, each of which
stands for the directional derivative along some ray.  The n-th power of
the derivative along a fan's first ray factors through the other rays: with
v1 = alpha_j*v2 + beta_j*vj for each later ray vj, the n-fold product

    (alpha_3 D2 + beta_3 D3) ... (alpha_{n+2} D2 + beta_{n+2} D_{n+2})

expands and splits as D2 * (cofactor) + (cross coefficient) * D3...D_{n+2},
where the cross coefficient is the product of the betas.  `apply_operator`
turns an operator into derivatives of a BiPoly in one integer pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, perm
from typing import Mapping, Sequence

from .errors import ArityError, MissingDirectionError, SingularDecompositionError
from .fan import FanPartition, Ray, are_collinear as _collinear, decompose_direction
# directional_derivative is unused here but stays bound: perfbench/spans.py
# patches supersmooth.operators.directional_derivative by name.
from .poly import BiPoly, _as_fraction, _direction_components, directional_derivative  # noqa: F401


class OperatorPoly:
    """Polynomial in commuting derivative symbols with rational coefficients."""

    __slots__ = ("arity", "_terms")

    def __init__(self, arity: int, terms: Mapping[tuple, Fraction | int] | None = None):
        self.arity = arity
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exponents, coeff in terms.items():
                if len(exponents) != arity:
                    raise ValueError(f"exponent tuple {exponents} does not match arity {arity}")
                if not all(isinstance(e, int) and e >= 0 for e in exponents):
                    raise ValueError(f"exponent tuple {exponents} needs nonnegative integers")
                c = _as_fraction(coeff)
                if c != 0:
                    clean[tuple(exponents)] = c
        self._terms = clean

    @classmethod
    def identity(cls, arity: int) -> "OperatorPoly":
        return cls(arity, {(0,) * arity: 1})

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        return self._terms

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self._terms)

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        if not isinstance(other, OperatorPoly) or other.arity != self.arity:
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                out[exps] = out.get(exps, Fraction(0)) + c1 * c2
        return OperatorPoly(self.arity, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    def __repr__(self) -> str:
        return f"OperatorPoly(arity={self.arity}, terms={self._terms!r})"


def apply_operator(op: OperatorPoly, directions: Sequence[Ray | None], p: BiPoly) -> BiPoly:
    """Substitute each symbol by the directional derivative along its ray.

    The symbols commute and D_v = v_x*d/dx + v_y*d/dy, so the operator is
    sigma(d/dx, d/dy), where sigma is the polynomial obtained by
    substituting the linear form dx_k*X + dy_k*Y for symbol k:

        op(p) = sum over (i, j) of sigma_ij * d^(i+j) p / dx^i dy^j.

    Both sums run in integers: each direction is cleared of denominators
    (m_k*(dx_k, dy_k) is integral), sigma is held over one common
    denominator and p over its own, so a term c*x^a*y^b of p meets sigma_ij
    as c*sigma_ij*perm(a, i)*perm(b, j) at x^(a-i)*y^(b-j), and one Fraction
    is built per output monomial.  `directions[k]` is the ray for
    symbol k, used with its raw components; a missing or None entry for a
    symbol the operator actually uses is an error, even when p is zero.
    """
    cleared: dict[int, tuple[int, int, int]] = {}
    powers: dict[tuple[int, int], list[int]] = {}
    products = []
    for exponents, coeff in op.terms.items():
        product, denominator = [1], coeff.denominator
        for index, power in enumerate(exponents):
            if power == 0:
                continue
            if index not in cleared:
                if index >= len(directions) or directions[index] is None:
                    raise MissingDirectionError(f"no direction bound to symbol {index}")
                dx, dy = _direction_components(directions[index])
                m = lcm(dx.denominator, dy.denominator)
                cleared[index] = (dx.numerator * (m // dx.denominator), dy.numerator * (m // dy.denominator), m)
            ux, uy, m = cleared[index]
            if (index, power) not in powers:
                # (ux*X + uy*Y)^power by x-exponent
                powers[index, power] = [comb(power, a) * ux**a * uy ** (power - a) for a in range(power + 1)]
            product = _times(product, powers[index, power])
            denominator *= m**power
        products.append((product, coeff.numerator, denominator))
    common = lcm(*(den for _, _, den in products))
    sigma: dict[tuple[int, int], int] = {}
    for product, numerator, den in products:
        factor = numerator * (common // den)
        top = len(product) - 1
        for a, v in enumerate(product):
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
    return BiPoly._new({mono: Fraction(v, common) for mono, v in out.items() if v})


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
    """
    rays = fan.rays if isinstance(fan, FanPartition) else tuple(fan)
    k = len(rays)
    if k != n + 2:
        raise ArityError(f"order {n} needs a fan of {n + 2} rays, got {k}")
    if any(_collinear(rays[i], rays[j]) for i in range(k) for j in range(i + 1, k)):
        raise SingularDecompositionError("rays contain a collinear pair")
    arity = n + 1
    v1, v2 = rays[0], rays[1]
    product = OperatorPoly.identity(arity)
    cross_coefficient = Fraction(1)
    for j in range(2, k):
        alpha, beta = decompose_direction(v1, v2, rays[j])
        factor = OperatorPoly(
            arity,
            {
                _unit(arity, 0): alpha,
                _unit(arity, j - 1): beta,
            },
        )
        product = product * factor
        cross_coefficient *= beta
    lead_terms: dict[tuple, Fraction] = {}
    tail = {}
    for exponents, coeff in product.terms.items():
        if exponents[0] >= 1:
            reduced = (exponents[0] - 1,) + exponents[1:]
            lead_terms[reduced] = lead_terms.get(reduced, Fraction(0)) + coeff
        else:
            tail[exponents] = coeff
    # The only way to avoid the lead symbol is to pick every beta factor.
    assert tail == {(0,) + (1,) * n: cross_coefficient}
    lead_cofactor = OperatorPoly(arity, lead_terms)
    return PowerOperatorExpansion(
        product=product,
        lead_cofactor=lead_cofactor,
        cross_coefficient=cross_coefficient,
    )


def _unit(arity: int, index: int) -> tuple:
    exps = [0] * arity
    exps[index] = 1
    return tuple(exps)
