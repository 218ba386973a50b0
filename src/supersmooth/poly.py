"""Exact sparse polynomial algebra in two variables.

A BiPoly maps exponent pairs (i, j) for x^i y^j to nonzero Fraction
coefficients; the zero polynomial is the empty map.  All operations are
pure and exact.  Restricting a BiPoly to a ray through the origin yields
a BiPoly in x alone, with x standing for the ray parameter t.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm
from operator import add, sub
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
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "BiPoly":
        return cls({(0, 0): _as_fraction(value)})

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Max i+j over stored terms; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), _ZERO)

    def is_homogeneous(self, degree: int) -> bool:
        return all(i + j == degree for i, j in self._terms)

    def integer_frame(self) -> tuple[dict[Monomial, int], int]:
        """The terms as integers over D, the lcm of their denominators, and D;
        built once per polynomial and shared by every integer consumer."""
        if self._frame is None:
            common = lcm(*(c.denominator for c in self._terms.values()))
            self._frame = (
                {mono: c.numerator * (common // c.denominator) for mono, c in self._terms.items()},
                common,
            )
        return self._frame

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in a fixed order (by total degree, then x-exponent)."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))

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
        return self._combine(rhs, add)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._new({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other) -> "BiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._combine(rhs, sub)

    def __rsub__(self, other) -> "BiPoly":
        return (-self) + other

    def _combine(self, rhs: "BiPoly", op) -> "BiPoly":
        """op(self, rhs) term by term, for op = operator.add or operator.sub; cancelled terms go."""
        out = dict(self._terms)
        for mono, coeff in rhs._terms.items():
            c = op(out.get(mono, _ZERO), coeff)
            if c:
                out[mono] = c
            else:
                del out[mono]  # only an existing term can cancel: coeff is nonzero
        return BiPoly._new(out)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                mono = (i1 + i2, j1 + j2)
                out[mono] = out.get(mono, _ZERO) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def scale(self, factor) -> "BiPoly":
        f = _as_fraction(factor)
        if f == 0:
            return BiPoly()
        return BiPoly._new({mono: coeff * f for mono, coeff in self._terms.items()})

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
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- calculus ------------------------------------------------------

    def partial(self, x_order: int, y_order: int) -> "BiPoly":
        """Exact mixed partial derivative of the given orders."""
        if x_order < 0 or y_order < 0:
            raise ValueError("derivative orders must be nonnegative")
        # Distinct monomials stay distinct, and their coefficients nonzero.
        return BiPoly._new({
            (i - x_order, j - y_order): coeff * (perm(i, x_order) * perm(j, y_order))
            for (i, j), coeff in self._terms.items()
            if i >= x_order and j >= y_order
        })

    def evaluate(self, x, y) -> Fraction:
        """Exact value at a rational point.

        With x = ax/bx, y = ay/by, top exponents I and J and the integer
        frame's denominator D, the value times D*bx^I*by^J is an integer, so
        the sum runs over ints and a single Fraction is built at the end.
        """
        vx, vy = _as_fraction(x), _as_fraction(y)
        terms, common = self.integer_frame()
        if not terms:
            return _ZERO
        ax, bx = vx.numerator, vx.denominator
        ay, by = vy.numerator, vy.denominator
        top_i = max(i for i, _ in terms)
        top_j = max(j for _, j in terms)
        total = 0
        for (i, j), c in terms.items():
            total += c * ax**i * bx ** (top_i - i) * ay**j * by ** (top_j - j)
        return Fraction(total, common * bx**top_i * by**top_j)

    def __str__(self) -> str:
        if not self._terms:
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

        ordered = sorted(self._terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))
        chunks = []
        for k, (mono, coeff) in enumerate(ordered):
            sign = "-" if coeff < 0 else ("+" if k else "")
            sep = " " if k else ""
            chunks.append(f"{sep}{sign}{' ' if k else ''}{fmt(mono, coeff)}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"BiPoly({self._terms!r})"


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


def linear_form_power(slope, n: int) -> BiPoly:
    """(y + slope*x)^n expanded via the binomial theorem."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    a = _as_fraction(slope)
    terms: dict[Monomial, Fraction] = {}
    binom = 1
    power = Fraction(1)
    for k in range(n + 1):
        # term: C(n,k) * a^k * x^k * y^(n-k)
        terms[(k, n - k)] = Fraction(binom) * power
        binom = binom * (n - k) // (k + 1)
        power *= a
    return BiPoly(terms)
