from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supersmooth import RationalParseError, format_rational, parse_rational


def test_parse_integer_and_fraction():
    assert parse_rational("7") == 7
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("6/4") == Fraction(3, 2)


@pytest.mark.parametrize(
    "bad",
    ["1/0", "3/-4", "1.5", "1e3", "", "a", "+3", "1 / 2", "3\n", "-3/4\n", "1_000",
     "\u0663", "\u0663/\u0664", "-\u0661\u0662", "\uff11"],  # Arabic-Indic and fullwidth digits
)
def test_parse_rejects_loose_forms(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "text",
    ["1" * 5000, "1/" + "7" * 5000, "-" + "9" * 4400 + "/3"],
    ids=["numerator", "denominator", "negative"],
)
def test_parse_rejects_literals_beyond_the_digit_limit(text):
    with pytest.raises(RationalParseError, match="too long"):
        parse_rational(text)


def test_format_canonical():
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(0) == "0"


@given(st.fractions(max_denominator=10**6))
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.fractions(max_denominator=1000), st.fractions(max_denominator=1000))
def test_arithmetic_stays_normalized(a, b):
    # Fraction guarantees reduced form with positive denominator; the text
    # form relies on that after every operation.
    for value in (a + b, a - b, a * b):
        assert value.denominator > 0
        from math import gcd

        assert gcd(abs(value.numerator), value.denominator) == 1
        assert parse_rational(format_rational(value)) == value
