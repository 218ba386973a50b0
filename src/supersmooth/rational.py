"""Exact rational scalars and their canonical text form.

Rationals are plain `fractions.Fraction` values: arbitrary precision,
always reduced, denominator always positive.  The canonical serialization
is "p" for integers and "p/q" with q > 0 otherwise, e.g. "-3/4".
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Collection

from .errors import DomainError, RationalParseError

Rational = Fraction

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
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    return _format_ratio(value.numerator, value.denominator)


def _format_ratio(num: int, den: int) -> str:
    """Canonical text of the integers num/den (den > 0), reduced by one gcd: `_parse_ratio`'s twin."""
    g = gcd(num, den)
    try:
        return str(num // g) if den == g else f"{num // g}/{den // g}"
    except ValueError:
        raise DomainError(f"rational too long to print (over {sys.get_int_max_str_digits()} digits)") from None


def primitive(values: Collection[Fraction | int]) -> list[int]:
    """Coprime integer multiple of a rational vector, first nonzero entry positive (zeros stay zeros)."""
    common = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (common // v.denominator) for v in values]
    content = gcd(*ints)
    if next((v for v in ints if v), 0) < 0:
        content = -content
    return [v // content for v in ints] if content not in (0, 1) else ints
