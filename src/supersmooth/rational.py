"""Exact rational scalars, the one rule for exact input, and their text form.

Rationals are ints (bools included) and `fractions.Fraction` values; `exact`
refuses any other type, and every exact entry point of the package reads it,
`clear_denominators` or `clear_direction`.  Points and directions of float
code (`fan.locate_sector`, `numcheck`) may also hold finite floats, read
exactly by `real_ratio` and `real_direction`.  The canonical serialization is
"p" for integers and "p/q" with q > 0 otherwise, e.g. "-3/4".
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Collection, Sequence

from .errors import DomainError, InvalidDirectionError, RationalParseError


def exact(value: Fraction | int) -> Fraction | int:
    """`value` itself if it is an int (bools included) or a Fraction, else a TypeError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def clear_denominators(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Exact values as integers over the lcm of their denominators, which leaves no common factor."""
    common = lcm(*(exact(v).denominator for v in values))
    return [v.numerator * (common // v.denominator) for v in values], common


def clear_direction(dx: Fraction | int, dy: Fraction | int) -> tuple[int, int, int]:
    """Exact (dx, dy) as integers (u, v) over one denominator m > 0; (0, 0) is an InvalidDirectionError."""
    m = lcm(exact(dx).denominator, exact(dy).denominator)
    u, v = dx.numerator * (m // dx.denominator), dy.numerator * (m // dy.denominator)
    if not (u or v):
        raise InvalidDirectionError("a ray needs a nonzero direction")
    return u, v, m


def real_ratio(value, what: str) -> tuple[int, int]:
    """The integers (p, q > 0) of an exact value or a finite float, read exactly.

    Any other type is `exact`'s TypeError, an infinite or NaN float a
    DomainError that names `what`.
    """
    if not isinstance(value, float):
        return exact(value).as_integer_ratio()
    if not isfinite(value):
        raise DomainError(f"{what} must be finite, got {value}")
    return value.as_integer_ratio()


def real_direction(dx, dy) -> tuple[tuple[int, int], tuple[int, int]]:
    """`real_ratio` of each component of a direction; (0, 0) is `clear_direction`'s InvalidDirectionError."""
    (p, q), (r, s) = real_ratio(dx, "a direction component"), real_ratio(dy, "a direction component")
    clear_direction(p, r)  # a component is zero exactly when its numerator is
    return (p, q), (r, s)


# Strict literal form: optional sign, ASCII digits, optional "/digits".
# The denominator carries no sign, so "3/-4" is rejected outright.  \d
# would also match non-ASCII decimal digits, which int() reads too.
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical "p" or "p/q" form, rejecting anything looser."""
    return Fraction(*_parse_ratio(text))


def _parse_ratio(text: str) -> tuple[int, int]:
    """The integers p and q > 0 of a "p" or "p/q" literal, as written (not reduced)."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise RationalParseError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        # Python refuses integer literals above sys.get_int_max_str_digits() digits.
        raise RationalParseError(f"rational literal too long ({len(text)} characters)") from None
    if den == 0:
        raise RationalParseError(f"zero denominator: {text!r}")
    return num, den


def format_rational(value: Fraction | int) -> str:
    """Render an int or Fraction in the canonical "p" or "p/q" form.

    Any other type is a TypeError.  A part too long for str() (over
    sys.get_int_max_str_digits() digits) is a DomainError: `parse_rational`
    could not read it back either.
    """
    return _format_ratio(exact(value).numerator, value.denominator)


def _format_ratio(num: int, den: int) -> str:
    """Canonical text of the integers num/den (den > 0), reduced by one gcd: `_parse_ratio`'s twin."""
    g = gcd(num, den)
    try:
        return str(num // g) if den == g else f"{num // g}/{den // g}"
    except ValueError:
        raise DomainError(f"rational too long to print (over {sys.get_int_max_str_digits()} digits)") from None


def primitive(values: Collection[Fraction | int]) -> list[int]:
    """Coprime integer multiple of a rational vector, first nonzero entry positive (zeros stay zeros)."""
    try:
        common = lcm(*(v.denominator for v in values))
    except AttributeError:  # on the elimination path `exact` reads the entries only once one has failed
        for v in values:
            exact(v)
        raise
    ints = [v.numerator * (common // v.denominator) for v in values]
    content = gcd(*ints)
    if next((v for v in ints if v), 0) < 0:
        content = -content
    return [v // content for v in ints] if content not in (0, 1) else ints
