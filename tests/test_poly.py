import json
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersmooth import (
    BiPoly,
    InvalidDirectionError,
    OperatorPoly,
    X,
    Y,
    apply_operator,
    build_counterexample,
    build_fan,
    decode_spline,
    directional_derivative,
    encode_spline,
    expand_power_operator,
    linear_form_power,
    restrict_to_ray,
    sample_grid,
    sample_spline_space,
    smoothness_across_ray,
    spline_space_basis,
    spline_space_dimension,
)
from supersmooth.dimension import kernel_sizes
from supersmooth.poly import line_power
from helpers import (
    assert_canonical_frame,
    fraction_add,
    fraction_mul,
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


@pytest.mark.parametrize(
    "poly, text",
    [
        (BiPoly.zero(), "0"),
        (BiPoly.constant(-1), "-1"),
        (BiPoly.constant(Fraction(3, 4)), "3/4"),
        (-X, "-x"),
        (3 * X**2 * Y - Y + 7, "3*x^2*y - y + 7"),
        (X * Y - Fraction(1, 2) * Y**2 - 1, "x*y - 1/2*y^2 - 1"),
        (-(Y**3) + X, "-y^3 + x"),
        (Fraction(-2, 3) * X, "-2/3*x"),
    ],
)
def test_str_form(poly, text):
    assert str(poly) == text


def test_product_difference_of_squares():
    assert (X + Y) * (X - Y) == X**2 - Y**2


def test_square_of_binomial():
    assert (Y + 2 * X) ** 2 == Y**2 + 4 * X * Y + 4 * X**2


def test_subtraction_collapses_to_zero():
    p = 3 * X**2 * Y - Y + 7
    assert (p - p).is_zero
    assert (p - p).terms == {}


def test_subtraction_from_a_constant_and_scaling_by_zero():
    assert 3 - X == BiPoly({(0, 0): 3, (1, 0): -1})
    assert (X - X).terms == {}
    assert X.scale(0).terms == {}


def test_subtracting_a_non_polynomial_raises():
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: 'BiPoly' and 'str'"):
        X - "a"
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: 'str' and 'BiPoly'"):
        "a" - X


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: BiPoly({(-1, 2): 1}), ValueError),
        (lambda: X + "a", TypeError),
        (lambda: X * "a", TypeError),
        (lambda: X ** -1, ValueError),
        (lambda: X ** 1.5, ValueError),
        (lambda: X.partial(0, -1), ValueError),
        (lambda: linear_form_power(2, -1), ValueError),
        # One exponent rule: a non-bool int >= 0, for monomials and derivatives alike.
        *((lambda e=e: BiPoly({(e, 0): 1}), ValueError) for e in (0.5, 1.0, True, -1)),
        *((lambda e=e: BiPoly({(0, e): 0}), ValueError) for e in (0.5, 1.0, True, -1)),
        *((lambda e=e: X.partial(e, 0), ValueError) for e in (0.5, 1.0, True, -1)),
        *((lambda e=e: X ** e, ValueError) for e in (0.5, 1.0, True, -1)),
        *((lambda e=e: linear_form_power(2, e), ValueError) for e in (0.5, 1.0, True, -1)),
    ],
)
def test_invalid_operands_and_arguments_raise(call, error):
    with pytest.raises(error):
        call()


_FAN = build_fan([(1, 0), (0, 1), (-1, -1)])
_SPLINE = spline_space_basis(_FAN, 2, 1)[-1]
# Every size a public entry reads, with the value it is bound to.  A bool
# was read as 1 and a float failed deep inside with a bare TypeError.
_SIZE_CALLS = {
    "kernel_sizes-degree": lambda e: kernel_sizes(_FAN, e, 0),
    "kernel_sizes-smoothness": lambda e: kernel_sizes(_FAN, 3, e),
    "dimension-degree": lambda e: spline_space_dimension(_FAN, e, 0),
    "dimension-smoothness": lambda e: spline_space_dimension(_FAN, 3, e),
    "basis-degree": lambda e: spline_space_basis(_FAN, e, 0),
    "basis-smoothness": lambda e: spline_space_basis(_FAN, 3, e),
    "sample-degree": lambda e: sample_spline_space(_FAN, e, 0, 1),
    "sample-smoothness": lambda e: sample_spline_space(_FAN, 3, e, 1),
    "sample-count": lambda e: sample_spline_space(_FAN, 3, 1, e),
    "expand_power_operator-n": lambda e: expand_power_operator(_FAN, e),
    "OperatorPoly-arity": lambda e: OperatorPoly(e),
    "smoothness_across_ray-ray_index": lambda e: smoothness_across_ray(_SPLINE, e),
}


@pytest.mark.parametrize("call", _SIZE_CALLS)
@pytest.mark.parametrize("size", [True, 1.0], ids=["bool", "float"])
def test_every_size_passes_the_exponent_rule(call, size):
    with pytest.raises(ValueError, match=r"^exponents must be nonnegative integers, got \(.*\)$"):
        _SIZE_CALLS[call](size)


@pytest.mark.parametrize("grid_n", [3.0, 2.5])
def test_a_grid_size_passes_the_exponent_rule(grid_n):
    # a bool grid_n is below 2, which is already the grid's own DomainError
    with pytest.raises(ValueError, match=r"^exponents must be nonnegative integers, got \(.*\)$"):
        sample_grid(_SPLINE, grid_n, 1.0)


def test_comparison_with_a_non_polynomial_and_repr():
    assert (X == "a") is False
    assert repr(Fraction(-1, 2) * X) == "BiPoly({(1, 0): Fraction(-1, 2)})"


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


rational_directions = st.tuples(coefficients, coefficients).filter(lambda d: d != (0, 0))


@given(bipolys, directions | rational_directions, st.fractions(min_value=-5, max_value=5, max_denominator=7))
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


@given(st.integers(-30, 30) | st.integers(-(10**20), 10**20), st.integers(-30, 30), st.integers(0, 9))
def test_line_power_equals_the_bipoly_power(u, v, n):
    power = (u * X + v * Y) ** n
    assert line_power(u, v, n) == [power.coefficient(a, n - a) for a in range(n + 1)]


@given(st.fractions(min_value=-9, max_value=9, max_denominator=10**6), st.integers(0, 9))
def test_linear_form_power_equals_the_bipoly_power(slope, n):
    assert linear_form_power(slope, n) == (Y + slope * X) ** n


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
        assert poly.integer_frame() is poly.integer_frame()  # the stored frame itself
        assert all(type(c) is int and c for c in terms.values())
        assert {mono: Fraction(c, common) for mono, c in terms.items()} == dict(poly.terms)
        # least: no common factor is left between the numerators and D
        assert math.gcd(common, *terms.values()) == 1
    assert BiPoly.zero().integer_frame() == ({}, 1)


@given(
    st.dictionaries(monomials, st.integers(-40, 40) | st.just(0), max_size=6),
    st.integers(1, 30) | st.just(1),
    st.integers(1, 12),
)
def test_from_frame_equals_the_fraction_route(numerators, denominator, shared):
    # `shared` multiplies the numerators and the denominator alike, so the
    # given frame need not be minimal.
    numerators = {mono: c * shared for mono, c in numerators.items()}
    denominator *= shared
    framed = BiPoly._from_frame(numerators, denominator)
    numerators[(9, 9)] = 1  # the frame is copied, not aliased
    reference = BiPoly({mono: Fraction(c, denominator) for mono, c in numerators.items() if mono != (9, 9)})
    assert framed.integer_frame() == reference.integer_frame()
    assert framed.is_zero == reference.is_zero
    assert framed.total_degree() == reference.total_degree()
    for degree in range(-1, 10):
        assert framed.is_homogeneous(degree) == reference.is_homogeneous(degree)
    assert framed.terms == reference.terms
    assert all(type(c) is Fraction for c in framed.terms.values())
    assert framed == reference
    assert hash(framed) == hash(reference)


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


@given(
    _operand_pairs(),
    wide_coefficients | st.just(0) | st.integers(-5, 5),
    st.integers(0, 5),
    st.integers(0, 5),
    st.tuples(wide_coefficients | st.integers(-5, 5), wide_coefficients | st.integers(-5, 5)),
)
def test_arithmetic_equals_the_fraction_loops(pair, factor, x_order, y_order, point):
    # The loops return plain dicts: no BiPoly constructor or __eq__ on the oracle side.
    p, q = pair
    cases = [
        (p + q, fraction_add(p, q)),
        (p - q, fraction_sub(p, q)),
        (p - p, {}),
        (-q, fraction_sub(BiPoly.zero(), q)),
        (p.scale(factor), fraction_scale(p, factor)),
        (p.partial(x_order, y_order), fraction_partial(p, x_order, y_order)),
        (p * q, fraction_mul(p, q)),
    ]
    for got, expected in cases:
        assert got.terms == expected
        assert _well_formed(got)
    assert p.evaluate(*point) == termwise_evaluate(p, *point)


def test_terms_is_a_fresh_view():
    p = 3 * X**2 - Fraction(1, 2) * Y
    view = p.terms
    view[(0, 0)] = Fraction(7)
    assert p.terms == {(2, 0): 3, (0, 1): Fraction(-1, 2)}
    assert p.terms is not p.terms


@given(_operand_pairs(), st.integers(1, 12))
def test_polynomials_equal_by_two_routes_hash_equal(pair, shared):
    p, q = pair
    numerators, common = p.integer_frame()
    routes = [
        ((p + q) - q, p),
        (p * q, q * p),
        (p + q, BiPoly(fraction_add(p, q))),
        (BiPoly._from_frame({mono: c * shared for mono, c in numerators.items()}, common * shared), p),
        (p.scale(shared).scale(Fraction(1, shared)), p),
        (-(-p), p),
        (p - p, BiPoly.zero()),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)


@given(
    _operand_pairs(),
    wide_coefficients | st.just(0) | st.integers(-5, 5),
    st.dictionaries(monomials, st.integers(-40, 40), max_size=6),
    st.integers(1, 30),
    directions,
    st.integers(0, 3),
)
def test_arithmetic_gives_canonical_frames(pair, factor, numerators, shared, d, k):
    # `==` and `hash` compare stored frames, so every route must leave the canonical one.
    p, q = pair
    built = [
        p, q, BiPoly.zero(), BiPoly.constant(factor),
        BiPoly._from_frame({mono: c * shared for mono, c in numerators.items()}, shared),
        p + q, p - q, q - p, p - p, -p, 1 - p, p + factor,
        p * q, p * factor, p.scale(factor), q**k,
        p.partial(1, 0), p.partial(k, 1), restrict_to_ray(p, d), directional_derivative(q, d),
        linear_form_power(factor, k),
    ]
    for poly in built:
        assert_canonical_frame(poly)


def _unreduced(literal: str, shared: int) -> str:
    """A rational literal written with numerator and denominator multiplied by `shared`."""
    p, _, q = literal.partition("/")
    return f"{int(p) * shared}/{int(q or 1) * shared}"


slope_lists = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(lambda a: a != 0),
    min_size=2, max_size=5, unique=True,
)


@settings(max_examples=40, deadline=None)
@given(slope_lists, st.integers(1, 12), wide_bipolys, st.dictionaries(monomials, coefficients, max_size=4))
def test_library_builders_give_canonical_frames(slopes, shared, p, op_terms):
    spec = build_counterexample(slopes, len(slopes) - 1)
    document = json.loads(encode_spline(spec.spline))
    for piece in document["pieces"]:
        piece["monomials"] = {key: _unreduced(value, shared) for key, value in piece["monomials"].items()}
    decoded = decode_spline(json.dumps(document))
    assert decoded.pieces == spec.spline.pieces
    sampled = sample_spline_space(spec.spline.fan, 3, 1, count=2, seed=shared)
    applied = apply_operator(OperatorPoly(2, op_terms), spec.spline.fan.rays[1:3], p)
    for poly in [*spec.spline.pieces, *decoded.pieces, *(piece for s in sampled for piece in s.pieces), applied]:
        assert_canonical_frame(poly)
