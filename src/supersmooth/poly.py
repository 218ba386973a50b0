"""Exact sparse polynomial algebra in two variables.

A BiPoly is stored in one form, its canonical integer frame (numerators, D):
the sum of c*x^i*y^j/D over numerators {(i, j): c}, where D > 0, no
numerator is zero and gcd(D, *numerators) = 1.  Each polynomial has one such
frame, so == and hash compare frames.  `terms`, the Fraction coefficients,
is a fresh read-only view.  All operations are exact and run in integers.
Exact input passes `rational`'s rules; every monomial and derivative
exponent passes `check_exponents`.
Restricting a BiPoly to a ray through the origin yields a BiPoly in x
alone, with x standing for the ray parameter t.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, perm
from typing import Mapping, Tuple

from .rational import clear_denominators, clear_direction, exact

Monomial = Tuple[int, int]


def check_exponents(*exponents: int) -> None:
    """The one exponent rule: each is an int other than a bool, and >= 0."""
    for e in exponents:
        if type(e) is not int or e < 0:
            raise ValueError(f"exponents must be nonnegative integers, got {exponents}")


class BiPoly:
    """Bivariate polynomial with exact rational coefficients, stored sparsely."""

    __slots__ = ("_frame",)

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        terms = terms or {}
        for i, j in terms:
            check_exponents(i, j)
        numerators, common = clear_denominators(list(terms.values()))
        self._frame = ({(i, j): c for (i, j), c in zip(terms, numerators) if c}, common)

    @classmethod
    def _from_frame(cls, numerators: Mapping[Monomial, int], denominator: int) -> "BiPoly":
        """The polynomial sum of c*x^i*y^j/denominator over numerators, unchecked.

        The numerators must be ints on monomials with nonnegative exponents,
        and denominator > 0.  Zero numerators are dropped (into a new dict)
        and the rest divided by one gcd with the denominator, which leaves
        the canonical frame.
        """
        clean = {mono: c for mono, c in numerators.items() if c}
        content = gcd(denominator, *clean.values())
        if content != 1:
            clean = {mono: c // content for mono, c in clean.items()}
            denominator //= content
        poly = object.__new__(cls)
        poly._frame = (clean, denominator)
        return poly

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "BiPoly":
        return cls({(0, 0): value})

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """The nonzero Fraction coefficients by monomial: a fresh dict on every
        read, with no cache, so mutating it leaves the polynomial unchanged."""
        numerators, common = self._frame
        return {mono: Fraction(c, common) for mono, c in numerators.items()}

    @property
    def is_zero(self) -> bool:
        return not self._frame[0]

    def total_degree(self) -> int:
        """Max i+j over stored terms; -1 for the zero polynomial."""
        return max((i + j for i, j in self._frame[0]), default=-1)

    def coefficient(self, i: int, j: int) -> Fraction:
        return Fraction(self._frame[0].get((i, j), 0), self._frame[1])

    def is_homogeneous(self, degree: int) -> bool:
        return all(i + j == degree for i, j in self._frame[0])

    def integer_frame(self) -> tuple[dict[Monomial, int], int]:
        """The stored canonical frame (numerators, D) itself, read-only: the
        terms as integers over the lcm D of their denominators."""
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
        (left, left_den), (right, right_den) = self._frame, rhs._frame
        common = lcm(left_den, right_den)
        left_up, right_up = common // left_den, common // right_den
        out = {mono: c * left_up for mono, c in left.items()}
        for mono, c in right.items():
            out[mono] = out.get(mono, 0) + c * right_up
        return BiPoly._from_frame(out, common)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return self.scale(-1)

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
        (left, left_den), (right, right_den) = self._frame, other._frame
        out: dict[Monomial, int] = {}
        for (i1, j1), c1 in left.items():
            for (i2, j2), c2 in right.items():
                mono = (i1 + i2, j1 + j2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return BiPoly._from_frame(out, left_den * right_den)

    __rmul__ = __mul__

    def scale(self, factor) -> "BiPoly":
        f = exact(factor)
        numerators, common = self._frame
        return BiPoly._from_frame({mono: c * f.numerator for mono, c in numerators.items()}, common * f.denominator)

    def __pow__(self, exponent: int) -> "BiPoly":
        check_exponents(exponent)
        result = BiPoly.constant(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # Sound only because every frame is canonical: one polynomial, one frame.
    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._frame == other._frame

    def __hash__(self) -> int:
        return hash((frozenset(self._frame[0].items()), self._frame[1]))

    # Pickle protocols 0 and 1 need both for a class with __slots__.
    def __getstate__(self) -> tuple[dict[Monomial, int], int]:
        return self._frame

    def __setstate__(self, frame: tuple[dict[Monomial, int], int]) -> None:
        self._frame = frame

    # -- calculus ------------------------------------------------------

    def partial(self, x_order: int, y_order: int) -> "BiPoly":
        """Exact mixed partial derivative of the given orders."""
        check_exponents(x_order, y_order)
        numerators, common = self._frame
        return BiPoly._from_frame({
            (i - x_order, j - y_order): c * perm(i, x_order) * perm(j, y_order)
            for (i, j), c in numerators.items()
            if i >= x_order and j >= y_order
        }, common)

    def evaluate(self, x, y) -> Fraction:
        """Exact value at a rational point x = a/b, y = e/f: the sum of
        c*a^i*b^(I-i)*e^j*f^(J-j) over D*b^I*f^J, I and J the top exponents."""
        (a, b), (e, f) = exact(x).as_integer_ratio(), exact(y).as_integer_ratio()
        numerators, common = self._frame
        top_i = max((i for i, _ in numerators), default=0)
        top_j = max((j for _, j in numerators), default=0)
        total = sum(c * a**i * b ** (top_i - i) * e**j * f ** (top_j - j) for (i, j), c in numerators.items())
        return Fraction(total, common * b**top_i * f**top_j)

    def __str__(self) -> str:
        if self.is_zero:
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

        ordered = self.sorted_terms()[::-1]
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


def directional_derivative(p: BiPoly, direction) -> BiPoly:
    """dx * dp/dx + dy * dp/dy using the direction's raw components.

    Directions are deliberately not normalized: every downstream check is
    either of "equals zero" form or compares both sides under the same
    scaling, so unit length would only introduce irrational norms.
    """
    u, v, m = clear_direction(*direction)
    return p.partial(1, 0).scale(Fraction(u, m)) + p.partial(0, 1).scale(Fraction(v, m))


def restrict_to_ray(p: BiPoly, direction) -> BiPoly:
    """The restriction t -> p(t*dx, t*dy), exact, as a BiPoly in x alone (x is t):
    with (dx, dy) = (u, v)/m, t^k has the sum of c*u^i*v^j*m^(T-k) over D*m^T."""
    u, v, m = clear_direction(*direction)
    numerators, common = p.integer_frame()
    top = max(p.total_degree(), 0)
    by_power: dict[Monomial, int] = {}
    for (i, j), c in numerators.items():
        key = (i + j, 0)
        by_power[key] = by_power.get(key, 0) + c * u**i * v**j * m ** (top - i - j)
    return BiPoly._from_frame(by_power, common * m**top)


def line_power(u, v, n: int) -> list[int]:
    """Coefficients of (u*x + v*y)^n, indexed by the exponent of x."""
    return [comb(n, a) * u**a * v ** (n - a) for a in range(n + 1)]


def linear_form_power(slope, n: int) -> BiPoly:
    """(y + slope*x)^n = (p*x + q*y)^n / q^n for slope = p/q."""
    check_exponents(n)
    a = exact(slope)
    coefficients = line_power(a.numerator, a.denominator, n)
    return BiPoly._from_frame({(k, n - k): c for k, c in enumerate(coefficients)}, a.denominator**n)
