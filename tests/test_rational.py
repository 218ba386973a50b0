from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supersmooth import (
    BiPoly,
    CurveGluing,
    DomainError,
    InvalidDirectionError,
    OperatorPoly,
    RationalParseError,
    Ray,
    X,
    apply_operator,
    build_counterexample,
    build_halfplane_example,
    corner_witness_check,
    counterexample_coeffs,
    directional_derivative,
    estimate_gradient,
    fan_from_slopes,
    format_rational,
    linear_form_power,
    nullspace,
    one_sided_directional_derivative,
    parse_rational,
    rank,
    restrict_to_ray,
    verify_corner_gradient,
    verify_ray_lemma,
)
from supersmooth.rational import _format_ratio, _parse_ratio, clear_denominators, primitive


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


@pytest.mark.parametrize("value", [0.5, Decimal("0.5"), "1/2", None, 1j])
def test_format_rejects_inexact_and_non_numeric_values(value):
    # A float used to pass through Fraction(value) and print as "1/2".
    with pytest.raises(TypeError, match=f"got {type(value).__name__}$"):
        format_rational(value)


@pytest.mark.parametrize("text, ratio", [("2/4", (2, 4)), ("-6/3", (-6, 3)), ("0/7", (0, 7)), ("-0", (0, 1)), ("5", (5, 1))])
def test_parse_ratio_keeps_the_literal_unreduced(text, ratio):
    assert _parse_ratio(text) == ratio
    assert parse_rational(text) == Fraction(*ratio)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
def test_format_ratio_equals_formatting_the_fraction(num, den):
    # the unreduced twin of format_rational: it reads back through _parse_ratio
    text = _format_ratio(num, den)
    assert text == format_rational(Fraction(num, den))
    assert Fraction(*_parse_ratio(text)) == Fraction(num, den)


def test_format_ratio_rejects_a_part_too_long_to_print():
    with pytest.raises(DomainError, match="^rational too long to print"):
        _format_ratio(3 * 10**5000, 7)


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


def test_primitive_empty_and_all_zero():
    assert primitive([]) == []
    assert primitive([0, Fraction(0), 0]) == [0, 0, 0]


def test_primitive_makes_a_negative_lead_positive():
    assert primitive([0, -4, 6, -2]) == [0, 2, -3, 1]
    assert primitive([-7]) == [1]


def test_primitive_mixed_int_and_fraction():
    assert primitive([Fraction(1, 2), 3, Fraction(-5, 6)]) == [3, 18, -5]
    assert primitive([Fraction(-2, 3), 0, Fraction(4, 9)]) == [3, 0, -2]


@given(st.lists(st.fractions(max_denominator=50), max_size=6))
def test_primitive_is_the_coprime_positive_multiple(values):
    ints = primitive(values)
    assert len(ints) == len(values)
    if not any(values):
        assert ints == [0] * len(values)
        return
    lead = next(i for i, v in enumerate(values) if v)
    scale = Fraction(ints[lead]) / values[lead]
    assert [v * scale for v in values] == ints
    assert ints[lead] > 0
    assert gcd(*ints) == 1


# Every entry point that takes an exact number or direction, each fed `bad`
# in one exact slot.
_EXACT_ENTRY_POINTS = {
    "Ray": lambda bad: Ray(bad, 1),
    "BiPoly": lambda bad: BiPoly({(1, 0): bad}),
    "BiPoly.scale": lambda bad: X.scale(bad),
    "BiPoly.evaluate": lambda bad: X.evaluate(1, bad),
    "linear_form_power": lambda bad: linear_form_power(bad, 2),
    "directional_derivative": lambda bad: directional_derivative(X, (bad, 1)),
    "restrict_to_ray": lambda bad: restrict_to_ray(X, (1, bad)),
    "OperatorPoly": lambda bad: OperatorPoly(1, {(1,): bad}),
    "apply_operator": lambda bad: apply_operator(OperatorPoly(1, {(1,): 1}), [(bad, 1)], X),
    "format_rational": lambda bad: format_rational(bad),
    "counterexample_coeffs": lambda bad: counterexample_coeffs([bad, 2], 1),
    "fan_from_slopes": lambda bad: fan_from_slopes([bad, 2]),
    "build_counterexample": lambda bad: build_counterexample([bad, 2], 1),
    "build_halfplane_example": lambda bad: build_halfplane_example(1, [bad]),
    "nullspace": lambda bad: nullspace([[1, 2], [bad, 1]]),
    "rank": lambda bad: rank([[bad, 1]]),
}


@pytest.mark.parametrize("entry", _EXACT_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [0.5, "1/2", Decimal("0.5")], ids=["float", "str", "Decimal"])
def test_every_exact_entry_point_refuses_inexact_input_with_one_error(entry, bad):
    with pytest.raises(TypeError, match=f"^expected an exact rational, got {type(bad).__name__}$"):
        _EXACT_ENTRY_POINTS[entry](bad)


_EXACT_DIRECTION_CALLS = {
    "Ray": lambda zero: Ray(*zero),
    "directional_derivative": lambda zero: directional_derivative(X, zero),
    "restrict_to_ray": lambda zero: restrict_to_ray(X, zero),
    "apply_operator": lambda zero: apply_operator(OperatorPoly(1, {(1,): 1}), [zero], X),
}
# The float code reads finite floats too, so it gets the float zeros as well.
_NUMERIC_DIRECTION_CALLS = {
    "one_sided_directional_derivative": lambda zero: one_sided_directional_derivative(lambda x, y: x, (0.0, 0.0), zero),
    "verify_ray_lemma": lambda zero: verify_ray_lemma(lambda x, y: x, lambda x, y: x, zero),
}
_EXACT_ZEROS = [(0, 0), (False, Fraction(0)), (Fraction(0, 3), 0)]
_FLOAT_ZEROS = [(0.0, -0.0), (-0.0, 0)]


@pytest.mark.parametrize(
    "call, zero",
    [
        pytest.param(call, zero, id=f"zero{i}-{name}")
        for name, call in {**_EXACT_DIRECTION_CALLS, **_NUMERIC_DIRECTION_CALLS}.items()
        for i, zero in enumerate(_EXACT_ZEROS + _FLOAT_ZEROS * (name in _NUMERIC_DIRECTION_CALLS))
    ],
)
def test_a_zero_direction_is_one_error(call, zero):
    with pytest.raises(InvalidDirectionError, match="^a ray needs a nonzero direction$"):
        call(zero)


# The float code's points: each coordinate is exact or a finite float, read
# by `real_ratio` and rounded at most once; the corner's x is such a coordinate too.
_ZERO_FIELD = lambda x, y: 0.0
_NUMERIC_POINT_CALLS = {
    "one_sided_directional_derivative": lambda bad: one_sided_directional_derivative(_ZERO_FIELD, (bad, 0.0), (1, 0)),
    "estimate_gradient": lambda bad: estimate_gradient(_ZERO_FIELD, (0.0, bad)),
    "verify_corner_gradient": lambda bad: verify_corner_gradient(CurveGluing(abs, bad, _ZERO_FIELD, _ZERO_FIELD)),
    "corner_witness_check": lambda bad: corner_witness_check(_ZERO_FIELD, CurveGluing(abs, bad, _ZERO_FIELD, _ZERO_FIELD)),
    "CurveGluing.corner": lambda bad: CurveGluing(abs, bad, _ZERO_FIELD, _ZERO_FIELD).corner(),
}


@pytest.mark.parametrize("call", _NUMERIC_POINT_CALLS)
@pytest.mark.parametrize("bad, error, message", [
    ("1", TypeError, "^expected an exact rational, got str$"),
    (Decimal("0.5"), TypeError, "^expected an exact rational, got Decimal$"),
    (None, TypeError, "^expected an exact rational, got NoneType$"),
    (float("inf"), DomainError, "^a point coordinate must be finite, got inf$"),
    (float("nan"), DomainError, "^a point coordinate must be finite, got nan$"),
    (10**400, DomainError, "^a point coordinate must be within the float range$"),
], ids=["str", "Decimal", "None", "inf", "nan", "huge"])
def test_a_numeric_point_coordinate_is_exact_or_a_finite_float(call, bad, error, message):
    # the point is blamed, not the field
    with pytest.raises(error, match=message):
        _NUMERIC_POINT_CALLS[call](bad)


def test_ints_stay_ints_through_the_exact_entry_points():
    assert type(OperatorPoly(1, {(1,): 3}).terms[(1,)]) is int
    numerators, common = clear_denominators([3, Fraction(1, 2), True])
    assert (numerators, common) == ([6, 1, 2], 2) and all(type(v) is int for v in numerators)


@given(st.lists(st.fractions(max_denominator=50), max_size=6))
def test_clear_denominators_leaves_no_common_factor(values):
    numerators, common = clear_denominators(values)
    assert [Fraction(v, common) for v in numerators] == values
    assert gcd(common, *numerators) == 1
