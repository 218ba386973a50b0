"""Exact sparse polynomial algebra in two variables.

A BiPoly maps exponent pairs (i, j) for x^i y^j to nonzero Fraction
coefficients; the zero polynomial is the empty map.  A BiPoly built from
its integer frame (`BiPoly._from_frame`) holds the frame alone until its
Fraction terms are first read.  All operations are pure and exact.
Restricting a BiPoly to a ray through the origin yields a BiPoly in x
alone, with x standing for the ray parameter t.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, perm
from typing import Mapping, Tuple

from .errors import InvalidDirectionError

Monomial = Tuple[int, int]

_ZERO = Fraction(0)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class BiPoly:
    """Bivariate polynomial with exact rational coefficients, stored sparsely."""

    __slots__ = ("_terms", "_frame")

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for (i, j), coeff in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in monomial ({i}, {j})")
                c = _as_fraction(coeff)
                if c != 0:
                    clean[(i, j)] = c
        self._terms = clean
        self._frame = None

    @classmethod
    def _new(cls, clean: dict[Monomial, Fraction]) -> "BiPoly":
        """Wrap a dict that already maps valid monomials to nonzero Fractions, unchecked."""
        poly = object.__new__(cls)
        poly._terms = clean
        poly._frame = None
        return poly

    @classmethod
    def _from_frame(cls, numerators: Mapping[Monomial, int], denominator: int) -> "BiPoly":
        """The polynomial sum of c*x^i*y^j/denominator over numerators, unchecked.

        The numerators must be ints on monomials with nonnegative exponents,
        and denominator > 0.  Zero numerators are dropped (into a new dict)
        and the rest divided by one gcd with the denominator, which leaves
        the same minimal frame that `integer_frame` builds from Fractions.
        The Fraction terms are built on first read.
        """
        clean = {mono: c for mono, c in numerators.items() if c}
        content = gcd(denominator, *clean.values())
        if content != 1:
            clean = {mono: c // content for mono, c in clean.items()}
            denominator //= content
        poly = object.__new__(cls)
        poly._terms = None
        poly._frame = (clean, denominator)
        return poly

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "BiPoly":
        return cls({(0, 0): _as_fraction(value)})

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        if self._terms is None:
            numerators, common = self._frame
            self._terms = {mono: Fraction(c, common) for mono, c in numerators.items()}
        return self._terms

    def _monomials(self) -> Mapping[Monomial, object]:
        """Whichever of the terms and the frame exists; both have the same keys."""
        return self._frame[0] if self._terms is None else self._terms

    @property
    def is_zero(self) -> bool:
        return not self._monomials()

    def total_degree(self) -> int:
        """Max i+j over stored terms; -1 for the zero polynomial."""
        return max((i + j for i, j in self._monomials()), default=-1)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), _ZERO)

    def is_homogeneous(self, degree: int) -> bool:
        return all(i + j == degree for i, j in self._monomials())

    def integer_frame(self) -> tuple[dict[Monomial, int], int]:
        """The terms as integers over D, the lcm of their denominators, and D;
        built once per polynomial (or given, by `_from_frame`) and shared by
        the smoothness orders, operator application and grid sampling."""
        if self._frame is None:
            common = lcm(*(c.denominator for c in self._terms.values()))
            self._frame = (
                {mono: c.numerator * (common // c.denominator) for mono, c in self._terms.items()},
                common,
            )
        return self._frame

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in a fixed order (by total degree, then x-exponent)."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "BiPoly | None":
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly.constant(other)
        return None

    def __add__(self, other) -> "BiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in rhs.terms.items():
            out[mono] = out.get(mono, _ZERO) + coeff
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other) -> "BiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "BiPoly":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                mono = (i1 + i2, j1 + j2)
                out[mono] = out.get(mono, _ZERO) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def scale(self, factor) -> "BiPoly":
        f = _as_fraction(factor)
        return BiPoly({mono: coeff * f for mono, coeff in self.terms.items()})

    def __pow__(self, exponent: int) -> "BiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power needs a nonnegative integer exponent")
        result = BiPoly.constant(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- calculus ------------------------------------------------------

    def partial(self, x_order: int, y_order: int) -> "BiPoly":
        """Exact mixed partial derivative of the given orders."""
        if x_order < 0 or y_order < 0:
            raise ValueError("derivative orders must be nonnegative")
        return BiPoly({
            (i - x_order, j - y_order): coeff * (perm(i, x_order) * perm(j, y_order))
            for (i, j), coeff in self.terms.items()
            if i >= x_order and j >= y_order
        })

    def evaluate(self, x, y) -> Fraction:
        """Exact value at a rational point: the sum of c*x^i*y^j."""
        vx, vy = _as_fraction(x), _as_fraction(y)
        return sum((c * vx**i * vy**j for (i, j), c in self.terms.items()), _ZERO)

    def __str__(self) -> str:
        if not self.terms:
            return "0"

        def fmt(mono: Monomial, coeff: Fraction) -> str:
            i, j = mono
            parts = []
            if abs(coeff) != 1 or (i == 0 and j == 0):
                parts.append(str(abs(coeff)))
            if i:
                parts.append("x" if i == 1 else f"x^{i}")
            if j:
                parts.append("y" if j == 1 else f"y^{j}")
            return "*".join(parts)

        ordered = sorted(self.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))
        chunks = []
        for k, (mono, coeff) in enumerate(ordered):
            sign = "-" if coeff < 0 else ("+" if k else "")
            sep = " " if k else ""
            chunks.append(f"{sep}{sign}{' ' if k else ''}{fmt(mono, coeff)}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"BiPoly({self.terms!r})"


# Ready-made building blocks: 3*X**2 + Y reads like the formula it encodes.
X = BiPoly({(1, 0): 1})
Y = BiPoly({(0, 1): 1})


def _direction_components(direction) -> tuple[Fraction, Fraction]:
    dx, dy = direction
    dx, dy = _as_fraction(dx), _as_fraction(dy)
    if dx == 0 and dy == 0:
        raise InvalidDirectionError("direction vector must be nonzero")
    return dx, dy


def directional_derivative(p: BiPoly, direction) -> BiPoly:
    """dx * dp/dx + dy * dp/dy using the direction's raw components.

    Directions are deliberately not normalized: every downstream check is
    either of "equals zero" form or compares both sides under the same
    scaling, so unit length would only introduce irrational norms.
    """
    dx, dy = _direction_components(direction)
    return p.partial(1, 0).scale(dx) + p.partial(0, 1).scale(dy)


def restrict_to_ray(p: BiPoly, direction) -> BiPoly:
    """The restriction t -> p(t*dx, t*dy), exact, as a BiPoly in x alone (x is t)."""
    dx, dy = _direction_components(direction)
    by_power: dict[Monomial, Fraction] = {}
    for (i, j), coeff in p.terms.items():
        key = (i + j, 0)
        by_power[key] = by_power.get(key, _ZERO) + coeff * dx**i * dy**j
    return BiPoly(by_power)


def line_power(u, v, n: int) -> list[int]:
    """Coefficients of (u*x + v*y)^n, indexed by the exponent of x."""
    return [comb(n, a) * u**a * v ** (n - a) for a in range(n + 1)]


def linear_form_power(slope, n: int) -> BiPoly:
    """(y + slope*x)^n = (p*x + q*y)^n / q^n for slope = p/q."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    a = _as_fraction(slope)
    scale = a.denominator**n
    return BiPoly({(k, n - k): Fraction(c, scale) for k, c in enumerate(line_power(a.numerator, a.denominator, n))})
