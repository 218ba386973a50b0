"""Exact rational scalars and their canonical text form.

Rationals are plain `fractions.Fraction` values: arbitrary precision,
always reduced, denominator always positive.  The canonical serialization
is "p" for integers and "p/q" with q > 0 otherwise, e.g. "-3/4".
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

# Strict literal form: optional sign, digits, optional "/digits".
# The denominator carries no sign, so "3/-4" is rejected outright.
_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical "p" or "p/q" form, rejecting anything looser."""
    from .errors import RationalParseError

    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise RationalParseError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        # Python refuses integer literals above sys.get_int_max_str_digits() digits.
        raise RationalParseError(f"rational literal too long ({len(text)} characters)") from None
    if den == 0:
        raise RationalParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction | int) -> str:
    """Render a rational in the canonical "p" or "p/q" form."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
