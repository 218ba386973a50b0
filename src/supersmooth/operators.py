"""Commuting polynomials in directional-derivative symbols.

An OperatorPoly is a polynomial in `arity` commuting symbols, each of which
stands for the directional derivative along some ray.  The n-th power of
the derivative along a fan's first ray factors through the other rays: with
v1 = alpha_j*v2 + beta_j*vj for each later ray vj, the n-fold product

    (alpha_3 D2 + beta_3 D3) ... (alpha_{n+2} D2 + beta_{n+2} D_{n+2})

expands and splits as D2 * (cofactor) + (cross coefficient) * D3...D_{n+2},
where the cross coefficient is the product of the betas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ArityError, MissingDirectionError, SingularDecompositionError
from .fan import FanPartition, Ray, are_collinear as _collinear, decompose_direction
from .poly import BiPoly, directional_derivative


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
                c = Fraction(coeff)
                if c != 0:
                    clean[tuple(exponents)] = c
        self._terms = clean

    @classmethod
    def identity(cls, arity: int) -> "OperatorPoly":
        return cls(arity, {(0,) * arity: 1})

    @classmethod
    def symbol(cls, arity: int, index: int, coeff=1) -> "OperatorPoly":
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, {tuple(exps): coeff})

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        return max((sum(e) for e in self._terms), default=-1)

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self._terms)

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        if not isinstance(other, OperatorPoly) or other.arity != self.arity:
            return NotImplemented
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return OperatorPoly(self.arity, out)

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        if not isinstance(other, OperatorPoly) or other.arity != self.arity:
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                out[exps] = out.get(exps, Fraction(0)) + c1 * c2
        return OperatorPoly(self.arity, out)

    def scale(self, factor) -> "OperatorPoly":
        f = Fraction(factor)
        return OperatorPoly(self.arity, {e: c * f for e, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"OperatorPoly(arity={self.arity}, terms={self._terms!r})"


def apply_operator(op: OperatorPoly, directions: Sequence[Ray | None], p: BiPoly) -> BiPoly:
    """Substitute each symbol by the directional derivative along its ray.

    `directions[k]` is the ray for symbol k; a missing or None entry for a
    symbol the operator actually uses is an error.
    """
    result = BiPoly.zero()
    for exponents, coeff in op.terms.items():
        term = p
        for index, power in enumerate(exponents):
            if power == 0:
                continue
            if index >= len(directions) or directions[index] is None:
                raise MissingDirectionError(f"no direction bound to symbol {index}")
            for _ in range(power):
                term = directional_derivative(term, directions[index])
        result = result + term.scale(coeff)
    return result


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
