import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersmooth import construct
from supersmooth import spline as spline_module
from supersmooth.fan import line_count
from supersmooth import (
    InvalidSlopesError,
    Ray,
    BiPoly,
    X,
    Y,
    build_counterexample,
    build_halfplane_example,
    counterexample_coeffs,
    counterexample_digits,
    default_extra_slopes,
    fan_from_slopes,
    global_smoothness_order,
    linear_form_power,
    origin_smoothness_order,
    smoothness_across_ray,
    supersmoothness_verdict,
)
from helpers import (
    cumulative_pieces,
    fraction_origin_order,
    fraction_ray_orders,
    loop_extra_slopes,
    random_slope_set,
    refuse_polynomial_products,
    vandermonde_coeffs,
)


def test_coeffs_order_one():
    assert counterexample_coeffs([1, 2], 1) == [2, -1]


def test_coeffs_order_two():
    coeffs = counterexample_coeffs([1, 2, 3], 2)
    assert coeffs == [3, -3, 1]
    for s in (1, 2):
        assert sum(c * a**s for c, a in zip(coeffs, [1, 2, 3])) == 0


@pytest.mark.parametrize(
    "slopes,n",
    [([1, 1, 2], 2), ([1, 0, 2], 2), ([1, 2], 2), ([1, 2], 0)],
)
def test_coeffs_rejects_bad_slopes(slopes, n):
    with pytest.raises(InvalidSlopesError):
        counterexample_coeffs(slopes, n)


def test_kernel_is_one_dimensional_with_nonzero_entries():
    rng = Random(17)
    for n in range(1, 6):
        for _ in range(5):
            coeffs = counterexample_coeffs(random_slope_set(rng, n + 1), n)
            assert len(coeffs) == n + 1
            assert all(c != 0 for c in coeffs)


slope_sets = st.lists(
    st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(lambda a: a != 0),
    min_size=2,
    max_size=17,
    unique=True,
)


@given(slope_sets)
def test_closed_form_coeffs_equal_the_vandermonde_null_vector(slopes):
    # slopes are kept in the given order, not sorted clockwise
    assert counterexample_coeffs(slopes, len(slopes) - 1) == vandermonde_coeffs(slopes, len(slopes) - 1)


signed_slope_sets = st.lists(
    st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 9)),
    min_size=2,
    max_size=17,
    unique=True,
)


@given(signed_slope_sets)
@settings(max_examples=60, deadline=None)
def test_pieces_equal_the_cumulative_linear_form_powers(slopes):
    n = len(slopes) - 1
    spec = build_counterexample(slopes, n)
    assert list(spec.spline.pieces) == cumulative_pieces(spec.coeffs, spec.slopes, n)
    assert all(type(c) is Fraction for piece in spec.spline.pieces for c in piece.terms.values())


def test_build_multiplies_no_polynomials(monkeypatch):
    slopes = [Fraction(-7, 3), 2, Fraction(5, 4), -1, Fraction(1, 9)]
    expected = build_counterexample(slopes, 4)
    refuse_polynomial_products(monkeypatch)
    assert build_counterexample(slopes, 4) == expected


def test_build_order_one():
    spec = build_counterexample([1, 2], 1)
    assert spec.spline.fan.rays == (Ray(1, 0), Ray(1, -1), Ray(1, -2))
    assert spec.spline.pieces == (BiPoly.zero(), 2 * (Y + X), Y)
    assert global_smoothness_order(spec.spline) == 0
    assert origin_smoothness_order(spec.spline) == 0


def test_build_order_two():
    spec = build_counterexample([1, 2, 3], 2)
    expected = (
        BiPoly.zero(),
        linear_form_power(1, 2).scale(3),
        linear_form_power(1, 2).scale(3) - linear_form_power(2, 2).scale(3),
        Y**2,
    )
    assert spec.spline.pieces == expected
    assert global_smoothness_order(spec.spline) == 1
    assert origin_smoothness_order(spec.spline) == 1


def test_build_sorts_slopes_clockwise():
    spec = build_counterexample([3, Fraction(-1, 2), 1], 2)
    assert spec.slopes == (1, 3, Fraction(-1, 2))
    assert global_smoothness_order(spec.spline) == 1
    assert origin_smoothness_order(spec.spline) == 1


def test_build_rejects_duplicates():
    with pytest.raises(InvalidSlopesError):
        build_counterexample([1, 1], 1)


def test_build_checks_the_slopes_once(monkeypatch):
    checks = []
    distinct_nonzero = construct._distinct_nonzero
    monkeypatch.setattr(construct, "_distinct_nonzero", lambda slopes: checks.append(1) or distinct_nonzero(slopes))
    spec = build_counterexample([3, Fraction(-1, 2), 1], 2)
    assert len(checks) == 1
    assert spec.coeffs == tuple(counterexample_coeffs(spec.slopes, 2))
    assert spec.spline.fan == fan_from_slopes(spec.slopes)


@pytest.mark.parametrize(
    "slopes, n",
    [([1], 0), ([1, 2], 2), ([1, 1, 2], 2), ([1, 0, 2], 2)],
    ids=["n0", "count", "repeated", "zero"],
)
def test_the_digit_bound_refuses_what_the_builder_refuses(slopes, n):
    with pytest.raises(InvalidSlopesError) as built:
        build_counterexample(slopes, n)
    with pytest.raises(InvalidSlopesError, match=f"^{re.escape(str(built.value))}$"):
        counterexample_digits(slopes, n)


_ORDER_CALLS = {
    "build_counterexample": lambda n: build_counterexample([1, 2], n),
    "counterexample_coeffs": lambda n: counterexample_coeffs([1, 2], n),
    "counterexample_digits": lambda n: counterexample_digits([1, 2], n),
    "build_halfplane_example": lambda n: build_halfplane_example(n, [0]),
}


@pytest.mark.parametrize("call", _ORDER_CALLS)
@pytest.mark.parametrize("n", [True, 1.0], ids=["bool", "float"])
def test_an_order_that_is_not_an_int_is_the_exponent_rule_s_error(call, n):
    # A bool n once built a counterexample whose document wrote "n": true,
    # which decode_document refuses; a float n failed deep in the build.
    with pytest.raises(ValueError, match=rf"^exponents must be nonnegative integers, got \({n!r},\)$"):
        _ORDER_CALLS[call](n)


verdict_slope_sets = st.lists(
    st.integers(-40, 40).filter(bool).map(Fraction)
    | st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6)),
    min_size=2,
    max_size=11,
    unique=True,
)


@settings(max_examples=80, deadline=None)
@given(verdict_slope_sets)
def test_construction_is_exactly_c_n_minus_1_everywhere(slopes):
    # the cross-check the build no longer runs: its closed-form certificate
    # against a full verdict and the Fraction-difference route
    n = len(slopes) - 1
    spline = build_counterexample(slopes, n).spline
    report = supersmoothness_verdict(spline)
    assert report.per_ray_order == (n - 1,) * (n + 2)
    assert report.global_order == report.origin_order == n - 1
    assert fraction_ray_orders(spline) == [n - 1] * (n + 2)
    assert fraction_origin_order(spline) == n - 1


def test_build_certifies_without_a_verdict(monkeypatch):
    def refuse(*args):
        raise AssertionError("build_counterexample ran a verdict")

    for owner, name in [(spline_module, "smoothness_across_ray"), (spline_module, "origin_smoothness_order"),
                        (construct, "global_smoothness_order"), (construct, "origin_smoothness_order")]:
        monkeypatch.setattr(owner, name, refuse)
    spec = build_counterexample([3, Fraction(-1, 2), 1, Fraction(7, 5)], 3)
    assert spec.coeffs == tuple(counterexample_coeffs(spec.slopes, 3))


@pytest.mark.parametrize("wrong", [
    lambda coeffs: [0] + coeffs[1:],  # a zero coefficient: that ray is infinitely smooth
    lambda coeffs: [coeffs[0] + 1] + coeffs[1:],  # off the kernel: the last piece is not c*y^n
    lambda coeffs: [0] * len(coeffs),  # every piece, the last one too, is zero
], ids=["zero-coefficient", "off-kernel", "all-zero"])
def test_certificate_rejects_coefficients_off_the_closed_form(monkeypatch, wrong):
    closed_form = construct._coeffs
    monkeypatch.setattr(construct, "_coeffs", lambda values: wrong(closed_form(values)))
    with pytest.raises(AssertionError, match=r"construction must be exactly C\^\(n-1\) globally"):
        build_counterexample([1, 2, Fraction(-1, 3)], 2)


def test_per_ray_orders_are_sharp():
    rng = Random(19)
    for n in (1, 2, 3):
        spec = build_counterexample(random_slope_set(rng, n + 1), n)
        k = len(spec.spline.fan.rays)
        # between consecutive construction pieces the jump is c*l^n exactly
        for j in range(2, k):
            assert smoothness_across_ray(spec.spline, j) == n - 1
        assert smoothness_across_ray(spec.spline, 0) >= n - 1


def test_final_piece_is_nonzero_homogeneous():
    rng = Random(29)
    for n in (1, 2, 3, 4):
        spec = build_counterexample(random_slope_set(rng, n + 1), n)
        final = spec.spline.pieces[-1]
        assert not final.is_zero
        assert final.is_homogeneous(n)
        # vanishing to order n-1 on y=0 forces a pure y^n monomial
        assert set(final.terms) == {(0, n)}


def test_halfplane_order_one():
    spline = build_halfplane_example(1, [0])
    assert spline.fan.rays == (Ray(1, 0), Ray(-1, 0), Ray(0, 1))
    assert spline.pieces == (BiPoly.zero(), Y**2, Y**2)
    assert global_smoothness_order(spline) == 1
    assert origin_smoothness_order(spline) == 1


def test_halfplane_order_zero():
    spline = build_halfplane_example(0)
    assert spline.fan.rays == (Ray(1, 0), Ray(-1, 0))
    assert spline.pieces == (BiPoly.zero(), Y)
    assert global_smoothness_order(spline) == 0
    assert origin_smoothness_order(spline) == 0


def test_halfplane_order_two():
    spline = build_halfplane_example(2, [1, -1])
    assert global_smoothness_order(spline) == 2
    assert origin_smoothness_order(spline) == 2


def test_halfplane_never_theorem_applicable():
    for n in range(0, 5):
        report = supersmoothness_verdict(build_halfplane_example(n))
        assert not report.theorem_applicable
        assert report.supersmoothness_holds is None


def test_halfplane_rejects_duplicate_slopes():
    with pytest.raises(InvalidSlopesError):
        build_halfplane_example(2, [1, 1])


@pytest.mark.parametrize("slopes", [[], [1, 2, 3]])
def test_halfplane_rejects_the_wrong_number_of_slopes(slopes):
    with pytest.raises(InvalidSlopesError, match=rf"^half-plane example of order 2 needs 2 extra slopes, got {len(slopes)}$"):
        build_halfplane_example(2, slopes)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 8))
def test_halfplane_rays_pieces_and_orders(data, n):
    slopes = data.draw(st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=5), min_size=n, max_size=n, unique=True,
    ))
    spline = build_halfplane_example(n, slopes)
    assert spline.fan.rays[:2] == (Ray(1, 0), Ray(-1, 0))
    assert spline.pieces == (BiPoly.zero(),) + (Y ** (n + 1),) * (n + 1)
    report = supersmoothness_verdict(spline)
    # The extra rays join equal pieces, so only the x-axis pair has a finite order.
    assert report.per_ray_order == (n, n) + (spline_module.INFINITE,) * n
    assert report.global_order == report.origin_order == n


def test_default_extra_slopes():
    assert default_extra_slopes(0) == []
    assert default_extra_slopes(1) == [0]
    assert default_extra_slopes(4) == [0, 1, -1, 2]
    for n in range(201):
        assert default_extra_slopes(n) == loop_extra_slopes(n)


def test_a_hand_made_spec_stores_tuples_and_equals_the_built_one():
    built = build_counterexample([1, 2], 1)
    spec = construct.CounterexampleSpec(1, [1, 2], [2, -1], built.spline)
    assert type(spec.slopes) is tuple and type(spec.coeffs) is tuple
    assert spec == built and hash(spec) == hash(built)


def test_fan_from_slopes():
    fan = fan_from_slopes([1, 2, 3])
    assert fan.rays == (Ray(1, 0), Ray(1, -1), Ray(1, -2), Ray(1, -3))
    assert line_count(fan.rays) == len(fan.rays)
