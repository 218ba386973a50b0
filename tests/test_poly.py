import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supersmooth import (
    BiPoly,
    InvalidDirectionError,
    X,
    Y,
    directional_derivative,
    linear_form_power,
    restrict_to_ray,
)
from helpers import (
    fraction_add,
    fraction_partial,
    fraction_scale,
    fraction_sub,
    random_bipoly,
    random_direction,
    termwise_evaluate,
)

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=5)
monomials = st.tuples(st.integers(0, 4), st.integers(0, 4))
bipolys = st.dictionaries(monomials, coefficients, max_size=6).map(BiPoly)
directions = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda d: d != (0, 0))


def test_product_difference_of_squares():
    assert (X + Y) * (X - Y) == X**2 - Y**2


def test_square_of_binomial():
    assert (Y + 2 * X) ** 2 == Y**2 + 4 * X * Y + 4 * X**2


def test_subtraction_collapses_to_zero():
    p = 3 * X**2 * Y - Y + 7
    assert (p - p).is_zero
    assert (p - p).terms == {}


def test_partial_power_rule():
    assert (X**2 * Y).partial(1, 0) == 2 * X * Y


def test_partial_mixed_on_cube():
    # Independent route: k-th partials of (y+ax)^n scale by n!/(n-k)! * a^j.
    n, j, a = 3, 1, 2
    expected = linear_form_power(a, n - 2).scale(Fraction(6) * a**j)
    assert (Y + 2 * X) ** 3 == linear_form_power(2, 3)
    assert ((Y + 2 * X) ** 3).partial(1, 1) == expected
    assert expected == 12 * Y + 24 * X


def test_partial_of_constant():
    assert BiPoly.constant(5).partial(1, 0).is_zero


def test_directional_derivative_product_rule():
    assert directional_derivative(X * Y, (1, 1)) == X + Y


def test_directional_derivative_single_variable():
    assert directional_derivative(Y**3, (0, 1)) == 3 * Y**2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_directional_derivative_along_level_line(n):
    # (1, -2) is tangent to y + 2x = 0, so the derivative of its powers vanishes.
    assert directional_derivative((Y + 2 * X) ** n, (1, -2)).is_zero


def test_directional_derivative_rejects_zero_direction():
    with pytest.raises(InvalidDirectionError):
        directional_derivative(X, (0, 0))


def test_restrict_symmetric_cancellation():
    assert restrict_to_ray(Y**2 - X**2, (1, 1)).is_zero


def test_restrict_direct_substitution():
    assert restrict_to_ray(X * Y, (2, 1)) == BiPoly({(2, 0): 2})


def test_restrict_along_level_line():
    # direct substitution: (-2t + 2t)^3 = 0
    assert restrict_to_ray((Y + 2 * X) ** 3, (1, -2)).is_zero


@given(bipolys, directions, st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_restriction_is_a_polynomial_in_x_alone(p, d, t):
    r = restrict_to_ray(p, d)
    assert all(j == 0 for _, j in r.terms)
    assert r.evaluate(t, 0) == p.evaluate(t * d[0], t * d[1])


def test_restrict_rejects_zero_direction():
    with pytest.raises(InvalidDirectionError):
        restrict_to_ray(X, (0, 0))


def test_linear_form_power_examples():
    assert linear_form_power(2, 2) == Y**2 + 4 * X * Y + 4 * X**2
    assert linear_form_power(Fraction(7, 3), 0) == BiPoly.constant(1)
    assert linear_form_power(1, 3) == Y**3 + 3 * X * Y**2 + 3 * X**2 * Y + X**3


def test_evaluate_examples():
    assert (Y**2 + 4 * X * Y + 4 * X**2).evaluate(1, -2) == 0
    assert (X + Y).evaluate(0, 0) == 0
    assert (3 * X**2 - Y).evaluate(Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 2)


def test_evaluate_matches_termwise_fractions():
    rng = Random(8803)

    def rational(bound, max_denominator):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, max_denominator))

    for case in range(400):
        terms = {}
        for _ in range(rng.randint(0, 10)):
            terms[(rng.randint(0, 12), rng.randint(0, 12))] = rational(10**6, 10**4)
        p = BiPoly(terms)
        if case % 4 == 0:
            x, y = rng.randint(-50, 50), rng.randint(-50, 50)
        else:
            x, y = rational(10**5, 10**5), rational(10**5, 10**5)
        value = p.evaluate(x, y)
        assert type(value) is Fraction
        assert value == termwise_evaluate(p, x, y)


@given(bipolys, bipolys)
def test_integer_frame_is_the_terms_over_their_least_common_denominator(p, q):
    for poly in (p, p - q, p.partial(1, 0), -q):
        terms, common = poly.integer_frame()
        assert poly.integer_frame() is poly.integer_frame()  # built once
        assert all(type(c) is int and c for c in terms.values())
        assert {mono: Fraction(c, common) for mono, c in terms.items()} == dict(poly.terms)
        # least: no common factor is left between the numerators and D
        assert math.gcd(common, *terms.values()) == 1
    assert BiPoly.zero().integer_frame() == ({}, 1)


def test_evaluate_rejects_floats():
    with pytest.raises(TypeError):
        X.evaluate(0.5, 1)


@given(bipolys, directions, directions)
def test_directional_derivatives_commute(p, u, v):
    du_dv = directional_derivative(directional_derivative(p, u), v)
    dv_du = directional_derivative(directional_derivative(p, v), u)
    assert du_dv == dv_du


@given(bipolys, directions)
def test_chain_rule_for_restriction(p, v):
    # Restricting the directional derivative equals differentiating the
    # restriction; this is what makes unnormalized directions harmless.
    lhs = restrict_to_ray(directional_derivative(p, v), v)
    rhs = restrict_to_ray(p, v).partial(1, 0)
    assert lhs == rhs


def test_chain_rule_seeded_sweep():
    rng = Random(20240517)
    for _ in range(25):
        p = random_bipoly(rng)
        v = random_direction(rng)
        assert restrict_to_ray(directional_derivative(p, v), v) == restrict_to_ray(p, v).partial(1, 0)


# Coefficients with small and with large (coprime-prone) denominators.
wide_coefficients = coefficients | st.fractions(max_denominator=10**12).filter(lambda c: c != 0)
wide_bipolys = st.dictionaries(monomials, wide_coefficients, max_size=6).map(BiPoly)


@st.composite
def _operand_pairs(draw):
    """Two polys, the second often sharing monomials with the first so that terms cancel."""
    p = draw(wide_bipolys)
    q = draw(wide_bipolys)
    if p.terms and draw(st.booleans()):
        shared = draw(st.sets(st.sampled_from(sorted(p.terms)), min_size=1))
        q = BiPoly({**q.terms, **{mono: p.terms[mono] for mono in shared}})
    return p, q


def _well_formed(p: BiPoly) -> bool:
    return all(type(c) is Fraction and c != 0 for c in p.terms.values())


@given(_operand_pairs(), wide_coefficients | st.just(0) | st.integers(-5, 5), st.integers(0, 5), st.integers(0, 5))
def test_arithmetic_equals_the_fraction_loops(pair, factor, x_order, y_order):
    p, q = pair
    cases = [
        (p + q, fraction_add(p, q)),
        (p - q, fraction_sub(p, q)),
        (p - p, BiPoly.zero()),
        (-q, fraction_sub(BiPoly.zero(), q)),
        (p.scale(factor), fraction_scale(p, factor)),
        (p.partial(x_order, y_order), fraction_partial(p, x_order, y_order)),
    ]
    for got, expected in cases:
        assert got == expected
        assert _well_formed(got)
