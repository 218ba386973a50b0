import math
import struct
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    estimate_gradient,
    get_fixture,
    locate_sector,
    one_sided_directional_derivative,
    origin_smoothness_order,
    sample_spline_space,
    verify_corner_gradient,
    verify_field_rays,
    verify_ray_lemma,
)
from helpers import (
    fresh_gradient,
    fresh_one_sided,
    fresh_ray_lemma,
    random_bipoly,
    random_collinear_free_fan,
    random_direction,
    stencil_derivative,
)

CFG = NumericConfig()


def test_config_validation():
    with pytest.raises(Exception):
        NumericConfig(base_step=0.0)
    with pytest.raises(Exception):
        NumericConfig(richardson_levels=0)
    with pytest.raises(Exception):
        NumericConfig(tolerance=-1.0)


@pytest.mark.parametrize("field, value", [
    ("base_step", math.nan), ("base_step", math.inf), ("base_step", -math.inf), ("base_step", True),
    ("base_step", "0.1"), ("base_step", 10**400), ("base_step", 5e-324),
    # 2*base_step, the stencil's first offset, would overflow and the field would be blamed
    ("base_step", 1e308), ("base_step", math.nextafter(sys.float_info.max / 2, math.inf)),
    ("tolerance", math.nan), ("tolerance", math.inf), ("tolerance", False), ("tolerance", None),
    ("samples_per_ray", 2.5), ("samples_per_ray", 3.0), ("samples_per_ray", True),
    ("richardson_levels", True), ("richardson_levels", 2.0), ("richardson_levels", Fraction(3)),
    ("richardson_levels", 1100),
], ids=lambda value: str(value)[:20])
def test_config_rejects_values_that_would_fail_later_or_mislead(field, value):
    with pytest.raises(DomainError, match=field):
        NumericConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("base_step", 1), ("base_step", 1e-300), ("base_step", sys.float_info.max / 2),
    ("tolerance", 1.7976931348623157e308),
    ("samples_per_ray", 1), ("richardson_levels", 7),
])
def test_config_accepts_finite_positive_steps_and_integer_counts(field, value):
    assert getattr(NumericConfig(**{field: value}), field) == value


@pytest.mark.parametrize("base_step, largest", [
    (1e-3, 512),  # the central stencil's last factor is 2.0**(2*511); 2.0**1024 overflows
    (2.0**-1000, 23),  # 2**-1000 / 2**22 is the smallest normal float
    (1.0, 512),
])
def test_config_accepts_the_largest_level_count_and_no_more(base_step, largest):
    cfg = NumericConfig(base_step=base_step, richardson_levels=largest)
    for levels in (largest + 1, 10**5000):  # the second has too many digits for str()
        with pytest.raises(DomainError, match="richardson_levels"):
            NumericConfig(base_step=base_step, richardson_levels=levels)
    # the whole stencil runs at the accepted maximum: no OverflowError, no blamed field
    one_sided_directional_derivative(lambda x, y: x, (0.0, 0.0), (1, 0), cfg)
    assert estimate_gradient(lambda x, y: x + y, (0.0, 0.0), cfg) == (1.0, 1.0)


def test_an_overflowing_extrapolation_raises_once_per_estimate():
    # At 512 levels the central stencil's last factor is 2.0**1022, so a
    # derivative of 5 extrapolates to inf; 511 levels still give 5.0.
    assert estimate_gradient(lambda x, y: 5 * x, (0.0, 0.0), NumericConfig(richardson_levels=511)) == (5.0, 0.0)
    cfg = NumericConfig(richardson_levels=512)
    calls = [0]

    def field(x, y):
        calls[0] += 1
        return 5 * x

    with pytest.raises(EvaluationError, match=r"extrapolated derivative is non-finite \(inf\) at \(0.0, 0.0\); use fewer levels"):
        estimate_gradient(field, (0.0, 0.0), cfg)
    assert calls[0] == 2 * 512  # the x partial's full stencil, then one check
    gluing = CurveGluing(g=abs, corner_x=0.0, f_upper=lambda x, y: 5 * x, f_lower=lambda x, y: 5 * x)
    with pytest.raises(EvaluationError, match="non-finite"):
        verify_corner_gradient(gluing, cfg)
    with pytest.raises(EvaluationError, match="non-finite"):
        corner_witness_check(lambda x, y: 5 * x, gluing, cfg)
    # the one-sided stencil's largest factor is 2.0**512, so it needs a steeper field
    steep = lambda x, y: 1e200 * x
    for check in (lambda: one_sided_directional_derivative(steep, (0.0, 0.0), (1, 0), cfg),
                  lambda: verify_ray_lemma(steep, steep, (1, 0), cfg)):
        with pytest.raises(EvaluationError, match=r"extrapolated derivative is non-finite \(nan\) at \(0.0, 0.0\)"):
            check()
    assert one_sided_directional_derivative(steep, (0.0, 0.0), (1, 0), NumericConfig(richardson_levels=300))[0] == 1e200


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


_unit_interval = st.floats(min_value=-1.0, max_value=1.0)


@given(
    st.integers(1, 6),
    st.floats(min_value=2.0**-20, max_value=0.1),
    st.tuples(_unit_interval, _unit_interval),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda d: d != (0, 0)),
    st.tuples(_unit_interval, _unit_interval, _unit_interval),
)
def test_shared_stencil_points_match_the_three_point_stencil_bitwise(levels, base_step, point, direction, coeffs):
    a, b, c = coeffs
    points = []

    def f(x, y):
        points.append((x, y))
        return math.sin(a * x + b * y) + c * x * y * y

    cfg = NumericConfig(base_step=base_step, richardson_levels=levels)
    got = one_sided_directional_derivative(f, point, direction, cfg)
    # f(P) once, then one point per level plus the first level's far point
    assert len(points) == levels + 2
    expected = stencil_derivative(f, point, direction, cfg)
    assert struct.pack("<2d", *got) == struct.pack("<2d", *expected)


@pytest.mark.parametrize("samples, levels", [(9, 3), (4, 1)])
def test_ray_lemma_evaluates_each_field_once_per_stencil_point(samples, levels):
    calls = {"f": 0, "g": 0}

    def counted(name, field):
        def wrapped(x, y):
            calls[name] += 1
            return field(x, y)
        return wrapped

    f = lambda x, y: math.sin(x) + x * y
    g = lambda x, y: math.sin(x) + 0.5 * y * y
    cfg = NumericConfig(samples_per_ray=samples, richardson_levels=levels)
    report = verify_ray_lemma(counted("f", f), counted("g", g), (2, 1), cfg)
    # per sample: f(P) once, then one point per level plus the first far point
    assert calls == {"f": samples * (levels + 2), "g": samples * (levels + 2)}
    # the value gap reuses the stencil's f(P); the report is the one that
    # separate evaluations give
    ux, uy = 2 / math.hypot(2, 1), 1 / math.hypot(2, 1)
    value_gap = deriv_gap = 0.0
    for k in range(samples):
        t = k / samples
        point = (t * ux, t * uy)
        value_gap = max(value_gap, abs(f(*point) - g(*point)))
        df, _ = one_sided_directional_derivative(f, point, (ux, uy), cfg)
        dg, _ = one_sided_directional_derivative(g, point, (ux, uy), cfg)
        deriv_gap = max(deriv_gap, abs(df - dg))
    assert (report.max_value_gap, report.max_dirderiv_gap) == (value_gap, deriv_gap)


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda d: d != (0, 0)),
    st.integers(1, 5),
    st.integers(1, 12),
    st.floats(min_value=2.0**-20, max_value=0.1),
    st.tuples(_unit_interval, _unit_interval, _unit_interval),
)
def test_ray_lemma_equals_the_per_call_stencil(ray, levels, samples, base_step, coeffs):
    a, b, c = coeffs
    f = lambda x, y: math.sin(a * x + b * y) + c * x * y
    g = lambda x, y: math.sin(a * x + b * y) + c * y * y
    cfg = NumericConfig(base_step=base_step, richardson_levels=levels, samples_per_ray=samples)
    assert verify_ray_lemma(f, g, ray, cfg) == fresh_ray_lemma(f, g, ray, cfg)


def _recorded(field, points):
    def wrapped(x, y):
        points.append((x, y))
        return field(x, y)
    return wrapped


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda d: d != (0, 0)),
    st.integers(1, 6),
    st.floats(min_value=2.0**-20, max_value=0.1),
    st.tuples(_unit_interval, _unit_interval),
    st.tuples(_unit_interval, _unit_interval, _unit_interval),
)
def test_one_sided_and_gradient_equal_the_per_call_stencil(direction, levels, base_step, point, coeffs):
    a, b, c = coeffs
    f = lambda x, y: math.sin(a * x + b * y) + c * x * y * y
    cfg = NumericConfig(base_step=base_step, richardson_levels=levels)
    for new, old in (
        (lambda f: one_sided_directional_derivative(f, point, direction, cfg),
         lambda f: fresh_one_sided(f, point, direction, cfg)[1:]),
        (lambda f: estimate_gradient(f, point, cfg), lambda f: fresh_gradient(f, point, cfg)),
    ):
        new_points, old_points = [], []
        got, expected = new(_recorded(f, new_points)), old(_recorded(f, old_points))
        assert struct.pack("<2d", *got) == struct.pack("<2d", *expected)
        assert new_points == old_points


def _failing_at(call: int, bad: float, fields):
    """The fields with one shared call log; the call-th call returns `bad`."""
    log = []

    def wrap(index, field):
        def wrapped(x, y):
            log.append((index, x, y))
            return bad if len(log) == call else field(x, y)
        return wrapped

    return log, [wrap(index, field) for index, field in enumerate(fields)]


def _outcome(check, log):
    """The check's result or error text, and which field it called where, in order."""
    try:
        result = check()
    except EvaluationError as exc:
        result = f"EvaluationError: {exc}"
    return result, log


_bad_values = st.sampled_from([math.inf, -math.inf, math.nan])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 80), _bad_values, st.integers(1, 5), st.integers(1, 6),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda d: d != (0, 0)))
def test_ray_lemma_raises_the_fresh_route_error_after_the_same_calls(call, bad, levels, samples, ray):
    fields = (lambda x, y: math.sin(x) + x * y, lambda x, y: math.sin(x) + y * y)
    cfg = NumericConfig(richardson_levels=levels, samples_per_ray=samples)
    outcomes = []
    for check in (verify_ray_lemma, fresh_ray_lemma):
        log, (f, g) = _failing_at(call, bad, fields)
        outcomes.append(_outcome(lambda: check(f, g, ray, cfg), log))
    assert outcomes[0] == outcomes[1]
    if call <= 2 * samples * (levels + 2):  # the bad value is among the calls made
        text, log = outcomes[0]
        assert len(log) == call and text.startswith("EvaluationError: function returned non-finite value")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), _bad_values, st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**16))
def test_field_rays_raise_the_fresh_route_error_after_the_same_calls(call, bad, levels, samples, seed):
    rng = Random(seed)
    fan = random_collinear_free_fan(rng, rng.randint(2, 4))
    pieces = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in fan.rays]
    fields = [lambda x, y, a=a, b=b: a * x * x + b * y for a, b in pieces]
    cfg = NumericConfig(richardson_levels=levels, samples_per_ray=samples)
    k = len(fan.rays)

    def fresh(wrapped):
        return [fresh_ray_lemma(wrapped[(j - 1) % k], wrapped[j], fan.rays[j], cfg) for j in range(k)]

    outcomes = []
    for check in (lambda wrapped: verify_field_rays(PiecewiseField(fan, tuple(wrapped)), cfg), fresh):
        log, wrapped = _failing_at(call, bad, fields)
        outcomes.append(_outcome(lambda: check(wrapped), log))
    assert outcomes[0] == outcomes[1]


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
    assert get_fixture("lemma-xy") is fixture
    assert verify_ray_lemma(fixture.f, fixture.g, fixture.ray, CFG).passed


def test_unknown_fixture_name():
    with pytest.raises(DomainError):
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


def _float_field(piece):
    terms = [(float(c), i, j) for (i, j), c in piece.terms.items()]
    return lambda x, y: sum(c * x**i * y**j for c, i, j in terms)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4), st.integers(-4, 4), st.integers(-4, -1), st.integers(-4, 4),
    st.booleans(), st.integers(0, 4), st.integers(0, 2**16),
)
def test_corner_gradient_agrees_with_the_exact_origin_order(a, b, c, d, opposite, degree, seed):
    # Rays (a, b) and (c, d) with a > 0 > c: their union is the graph of
    # g(x) = (b/a)x for x >= 0 and (d/c)x for x < 0, a corner unless b/a == d/c.
    if opposite:
        c, d = -a, -b
    fan = build_fan([Ray(a, b), Ray(c, d)])
    (spline,) = sample_spline_space(fan, degree, 0, count=1, seed=seed)
    upper = locate_sector(fan, 0, 1)
    gluing = CurveGluing(
        g=lambda x: (b / a) * x if x >= 0 else (d / c) * x,
        corner_x=0.0,
        f_upper=_float_field(spline.pieces[upper]),
        f_lower=_float_field(spline.pieces[1 - upper]),
    )
    passed = verify_corner_gradient(gluing, CFG).passed
    exact_gain = origin_smoothness_order(spline) >= 1
    if Fraction(b, a) != Fraction(d, c):
        assert passed and exact_gain
    else:
        assert passed == exact_gain
