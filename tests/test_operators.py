from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supersmooth import (
    ArityError,
    BiPoly,
    InvalidDirectionError,
    MissingDirectionError,
    OperatorPoly,
    Ray,
    SingularDecompositionError,
    X,
    Y,
    apply_operator,
    build_fan,
    directional_derivative,
    expand_power_operator,
)
from helpers import apply_by_directions, random_bipoly, random_collinear_free_fan, refuse_polynomial_products


def test_expand_order_one():
    expansion = expand_power_operator(build_fan([Ray(1, 0), Ray(0, 1), Ray(1, 1)]), 1)
    assert expansion.product == OperatorPoly(2, {(1, 0): -1, (0, 1): 1})
    assert expansion.lead_cofactor == OperatorPoly(2, {(0, 0): -1})
    assert expansion.cross_coefficient == 1


def test_expand_order_two_in_listed_order():
    # rays as an ordered sequence: (-D2 + D3)(D2 + D4)
    rays = [Ray(1, 0), Ray(0, 1), Ray(1, 1), Ray(1, -1)]
    expansion = expand_power_operator(rays, 2)
    assert expansion.product == OperatorPoly(
        3, {(2, 0, 0): -1, (1, 0, 1): -1, (1, 1, 0): 1, (0, 1, 1): 1}
    )
    assert expansion.lead_cofactor == OperatorPoly(3, {(1, 0, 0): -1, (0, 0, 1): -1, (0, 1, 0): 1})
    assert expansion.cross_coefficient == 1


def test_expand_requires_matching_ray_count():
    with pytest.raises(ArityError):
        expand_power_operator(build_fan([Ray(1, 0), Ray(0, 1), Ray(1, 1)]), 2)


def test_expand_rejects_collinear_rays():
    with pytest.raises(SingularDecompositionError):
        expand_power_operator([Ray(1, 0), Ray(-1, 0), Ray(0, 1)], 1)


def test_cross_coefficient_is_product_of_betas():
    # beta_j = 0 would need ray 0 collinear with ray 1, which is excluded,
    # so the cross coefficient is never zero.
    rng = Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        fan = random_collinear_free_fan(rng, n + 2)
        expansion = expand_power_operator(fan, n)
        assert expansion.cross_coefficient != 0
        assert expansion.lead_cofactor.is_homogeneous(n - 1)
        assert expansion.product.is_homogeneous(n)


def test_apply_two_symbol_product():
    op = OperatorPoly(2, {(1, 1): 1})
    assert apply_operator(op, [Ray(1, 1), Ray(1, -1)], X * Y).is_zero


def test_apply_identity_operator():
    q = 3 * X**2 * Y - Y + 7
    assert apply_operator(OperatorPoly.identity(3), [Ray(1, 0)] * 3, q) == q


def test_apply_matches_direct_differentiation_order_one():
    expansion = expand_power_operator([Ray(1, 0), Ray(0, 1), Ray(1, 1)], 1)
    q = X**2
    via_operator = apply_operator(expansion.product, [Ray(0, 1), Ray(1, 1)], q)
    assert via_operator == directional_derivative(q, Ray(1, 0))
    assert via_operator == 2 * X


def test_apply_requires_all_directions():
    op = OperatorPoly(2, {(1, 1): 1})
    with pytest.raises(MissingDirectionError):
        apply_operator(op, [Ray(1, 1)], X * Y)
    with pytest.raises(MissingDirectionError):
        apply_operator(op, [Ray(1, 1), None], X * Y)


@pytest.mark.parametrize(
    "terms, error",
    [
        ({(1,): 0.1}, TypeError),
        ({(1,): "1/3"}, TypeError),
        ({(1,): None}, TypeError),
        ({(-1,): 1}, ValueError),
        ({(1.5,): 1}, ValueError),
        ({(1, 0): 1}, ValueError),
    ],
)
def test_operator_rejects_inexact_coefficients_and_bad_exponents(terms, error):
    with pytest.raises(error):
        OperatorPoly(1, terms)


def test_operator_keeps_exact_coefficients():
    assert OperatorPoly(2, {(1, 0): Fraction(1, 3), (0, 2): 2, (1, 1): 0}).terms == {(1, 0): Fraction(1, 3), (0, 2): 2}


def test_missing_direction_is_an_error_for_the_zero_polynomial():
    op = OperatorPoly(2, {(0, 1): Fraction(2, 7)})
    with pytest.raises(MissingDirectionError):
        apply_operator(op, [Ray(1, 0)], BiPoly.zero())
    assert apply_operator(op, [None, (Fraction(1, 2), Fraction(-3, 5))], BiPoly.zero()).is_zero


def test_apply_multiplies_no_polynomials(monkeypatch):
    fan = build_fan([Ray(1, 0), Ray(0, -1), Ray(-1, 2), Ray(3, 1), Ray(-2, -5)])
    expansion = expand_power_operator(fan, 3)
    q = BiPoly({(4, 1): Fraction(3, 7), (2, 2): -5, (0, 5): Fraction(1, 9)})
    expected = _nth_directional(q, fan.rays[0], 3)
    refuse_polynomial_products(monkeypatch)
    assert apply_operator(expansion.product, list(fan.rays[1:]), q) == expected


def _nth_directional(q: BiPoly, ray: Ray, n: int) -> BiPoly:
    for _ in range(n):
        q = directional_derivative(q, ray)
    return q


def test_power_identity_expanded_and_split_forms():
    rng = Random(98)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            fan = random_collinear_free_fan(rng, n + 2)
            expansion = expand_power_operator(fan, n)
            others = list(fan.rays[1:])
            for _ in range(5):
                q = random_bipoly(rng, max_degree=6, terms=7)
                direct = _nth_directional(q, fan.rays[0], n)
                assert apply_operator(expansion.product, others, q) == direct
                split = directional_derivative(
                    apply_operator(expansion.lead_cofactor, others, q), fan.rays[1]
                )
                cross = q
                for ray in fan.rays[2:]:
                    cross = directional_derivative(cross, ray)
                assert split + cross.scale(expansion.cross_coefficient) == direct


# Small denominators, and large ones that rarely share factors.
_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6) | st.fractions(
    min_value=-9, max_value=9, max_denominator=10**9
)
_bipolys = st.just(BiPoly.zero()) | st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda m: sum(m) <= 6), _fractions, max_size=8
).map(BiPoly)
_directions = (
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda d: d != (0, 0)).map(lambda d: Ray(*d))
    | st.tuples(_fractions, _fractions)  # raw components, not primitive; may be the zero tuple
)


@st.composite
def _operators_with_directions(draw):
    arity = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "homogeneous", "zero", "identity"]))
    if kind == "identity":
        op = OperatorPoly.identity(arity)
    else:
        exponents = st.tuples(*[st.integers(0, 3)] * arity)
        terms = {} if kind == "zero" else draw(st.dictionaries(exponents, _fractions, max_size=6))
        if kind == "homogeneous" and terms:
            degree = sum(next(iter(terms)))
            terms = {e: c for e, c in terms.items() if sum(e) == degree}
        op = OperatorPoly(arity, terms)
    used = {k for exps in op.terms for k, e in enumerate(exps) if e}
    # unused symbols may have no direction; rarely a used one lacks it too
    directions = [
        draw(_directions if k in used and draw(st.integers(0, 19)) else st.none() | _directions)
        for k in range(arity)
    ]
    if draw(st.integers(0, 9)) == 0:
        directions = directions[: draw(st.integers(0, arity))]  # trailing symbols unbound
    return op, directions


def _outcome(route, op, directions, p):
    try:
        return route(op, directions, p)
    except (InvalidDirectionError, MissingDirectionError) as exc:
        return type(exc)


@given(_operators_with_directions(), _bipolys)
def test_apply_through_the_symbol_equals_the_direction_loop(case, p):
    op, directions = case
    assert _outcome(apply_operator, op, directions, p) == _outcome(apply_by_directions, op, directions, p)
