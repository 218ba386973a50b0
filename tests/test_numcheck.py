import math
from fractions import Fraction
from random import Random

import pytest

from supersmooth import (
    CurveGluing,
    DomainError,
    EvaluationError,
    NumericConfig,
    PiecewiseField,
    Ray,
    RayLemmaFixture,
    build_fan,
    corner_witness_check,
    directional_derivative,
    get_fixture,
    one_sided_directional_derivative,
    verify_corner_gradient,
    verify_field_rays,
    verify_ray_lemma,
)
from helpers import random_bipoly, random_direction

CFG = NumericConfig()


def test_config_validation():
    with pytest.raises(Exception):
        NumericConfig(base_step=0.0)
    with pytest.raises(Exception):
        NumericConfig(richardson_levels=0)
    with pytest.raises(Exception):
        NumericConfig(tolerance=-1.0)


def test_one_sided_quadratic_at_origin():
    estimate, _ = one_sided_directional_derivative(lambda x, y: y * y, (0.0, 0.0), (0, 1), CFG)
    assert abs(estimate) <= CFG.tolerance


def test_one_sided_sine():
    estimate, err = one_sided_directional_derivative(
        lambda x, y: math.sin(x + y), (0.0, 0.0), (1, 0), CFG
    )
    assert abs(estimate - 1.0) < 1e-8
    assert err < 1e-6


def test_one_sided_absolute_value():
    # one-sided derivative of |t| at 0+ is exactly 1, and the forward stencil
    # never leaves the smooth branch
    estimate, _ = one_sided_directional_derivative(lambda x, y: abs(y), (0.0, 0.0), (0, 1), CFG)
    assert abs(estimate - 1.0) < 1e-8


def test_one_sided_rejects_non_finite():
    with pytest.raises(EvaluationError):
        one_sided_directional_derivative(lambda x, y: math.inf, (0.0, 0.0), (1, 0), CFG)


@pytest.mark.parametrize("direction", [(0, 0), (0.0, -0.0), (Fraction(0), 0)])
def test_one_sided_rejects_zero_direction(direction):
    with pytest.raises(DomainError):
        one_sided_directional_derivative(lambda x, y: x, (0.0, 0.0), direction, CFG)


@pytest.mark.parametrize("ray", [(0, 0), (0.0, -0.0), (Fraction(0), 0)])
def test_ray_lemma_rejects_zero_direction(ray):
    with pytest.raises(DomainError):
        verify_ray_lemma(lambda x, y: x, lambda x, y: x, ray, CFG)


def test_stencil_is_second_order():
    # with Richardson off, halving the step divides the error by about 4
    target = math.cos(0.3)
    f = lambda x, y: math.sin(x + y)
    coarse = one_sided_directional_derivative(
        f, (0.2, 0.1), (1, 0), NumericConfig(base_step=1e-2, richardson_levels=1)
    )[0]
    fine = one_sided_directional_derivative(
        f, (0.2, 0.1), (1, 0), NumericConfig(base_step=5e-3, richardson_levels=1)
    )[0]
    ratio = abs(coarse - target) / abs(fine - target)
    assert 3.4 < ratio < 4.6


def test_matches_exact_directional_derivative():
    rng = Random(1234)
    for _ in range(50):
        p = random_bipoly(rng, max_degree=3, terms=5, bound=3)
        v = random_direction(rng, bound=3)
        point = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = lambda x, y: float(p.evaluate(Fraction(x), Fraction(y)))
        estimate, _ = one_sided_directional_derivative(f, point, v, CFG)
        exact = directional_derivative(p, v).evaluate(Fraction(point[0]), Fraction(point[1]))
        # the estimator normalizes the direction, the exact value does not
        assert abs(estimate - float(exact) / math.hypot(*v)) < 1e-8


def test_ray_lemma_tangential_agreement():
    report = verify_ray_lemma(lambda x, y: x * x, lambda x, y: x * x + x * y, (1, 0), CFG)
    assert report.passed
    assert report.max_value_gap <= CFG.tolerance


def test_ray_lemma_ignores_transversal_mismatch():
    # g - f = y vanishes on the ray and has zero ray-direction derivative
    # there; the lemma does not see the transversal jump
    report = verify_ray_lemma(lambda x, y: x * x, lambda x, y: x * x + y, (1, 0), CFG)
    assert report.passed


def test_ray_lemma_identical_functions():
    f = lambda x, y: math.exp(x) * math.cos(y)
    report = verify_ray_lemma(f, f, (1, 2), CFG)
    assert report.passed
    assert report.max_value_gap == 0.0
    assert report.max_dirderiv_gap == 0.0


def test_ray_lemma_detects_value_mismatch():
    report = verify_ray_lemma(lambda x, y: x, lambda x, y: x + 0.5, (1, 0), CFG)
    assert not report.passed


def test_corner_gradient_forced_match():
    report = verify_corner_gradient(get_fixture("corner-quadratic"), CFG)
    assert report.passed
    assert report.continuity_gap <= CFG.tolerance
    assert report.grad_gap <= 1e-6
    assert max(map(abs, report.grad_upper + report.grad_lower)) < 1e-6


@pytest.mark.parametrize("tolerance", [1e-7, 1e-6, 1e-5, 1e-4])
def test_corner_gradient_passes_across_tolerances(tolerance):
    cfg = NumericConfig(tolerance=tolerance)
    assert verify_corner_gradient(get_fixture("corner-quadratic"), cfg).passed


def test_corner_gradient_smooth_curve_mismatch():
    report = verify_corner_gradient(get_fixture("smooth-parabola"), CFG)
    assert not report.passed
    assert report.continuity_gap <= CFG.tolerance
    assert 0.9 <= report.grad_gap <= 1.1


def test_corner_gradient_single_function():
    gluing = CurveGluing(
        g=abs, corner_x=0.0,
        f_upper=lambda x, y: x + y, f_lower=lambda x, y: x + y,
    )
    report = verify_corner_gradient(gluing, CFG)
    assert report.passed


def test_halfplane_fixture_is_differentiable_glue():
    report = verify_corner_gradient(get_fixture("halfplane-n1"), CFG)
    assert report.passed


def test_witness_on_smooth_parabola():
    fixture = get_fixture("smooth-parabola")
    report = corner_witness_check(fixture.f_upper, fixture, CFG)
    assert report.vanishes_on_curve
    assert report.is_witness
    assert report.grad_norm_at_p > math.sqrt(CFG.tolerance)


def test_no_witness_at_corner():
    fixture = get_fixture("corner-quadratic")
    report = corner_witness_check(fixture.f_upper, fixture, CFG)
    assert report.vanishes_on_curve
    assert not report.is_witness
    assert report.grad_norm_at_p < 1e-6


def test_witness_candidate_must_vanish():
    fixture = get_fixture("corner-quadratic")
    report = corner_witness_check(lambda x, y: 1.0, fixture, CFG)
    assert not report.vanishes_on_curve
    assert not report.is_witness


def test_lemma_fixture_registry():
    fixture = get_fixture("lemma-xy")
    assert isinstance(fixture, RayLemmaFixture)
    assert verify_ray_lemma(fixture.f, fixture.g, fixture.ray, CFG).passed


def test_unknown_fixture_name():
    with pytest.raises(Exception):
        get_fixture("no-such-fixture")


def test_piecewise_field_ray_checks():
    fan = build_fan([Ray(1, 0), Ray(-1, 0), Ray(0, 1)])
    field = PiecewiseField(
        fan=fan,
        fields=(lambda x, y: 0.0, lambda x, y: y * y, lambda x, y: y * y),
    )
    reports = verify_field_rays(field, CFG)
    assert len(reports) == 3
    assert all(r.passed for r in reports)
