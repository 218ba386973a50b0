import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersmooth import (
    INFINITE,
    BiPoly,
    DomainError,
    FanPartition,
    PiecewisePoly,
    Ray,
    X,
    Y,
    build_counterexample,
    build_fan,
    build_halfplane_example,
    format_order,
    global_smoothness_order,
    linear_form_power,
    origin_smoothness_order,
    render_report,
    sample_spline_space,
    smoothness_across_ray,
    smoothness_order_of_difference,
    supersmoothness_verdict,
)
from supersmooth import spline as spline_module
from supersmooth.fan import line_count
from helpers import (
    all_partials_order,
    distinct_lines,
    fraction_order_of_difference,
    fraction_origin_order,
    fraction_ray_orders,
    line_divisibility_order,
    origin_partials,
    random_bipoly,
    random_collinear_free_fan,
    random_direction,
    random_fan,
    transverse_order,
)

TWO_GENERIC = build_fan([Ray(1, 0), Ray(1, -1)])
X_AXIS = build_fan([Ray(1, 0), Ray(-1, 0)])


def _two_piece(fan, a, b):
    return PiecewisePoly(fan=fan, pieces=(a, b))


def test_linear_jump_is_continuous_only():
    spline = _two_piece(TWO_GENERIC, BiPoly.zero(), 2 * (Y + X))
    assert smoothness_across_ray(spline, 1) == 0


def test_square_jump_across_x_axis():
    spline = _two_piece(X_AXIS, BiPoly.zero(), Y**2)
    assert smoothness_across_ray(spline, 0) == 1


def test_identical_pieces_are_infinitely_smooth():
    spline = _two_piece(X_AXIS, X + Y, X + Y)
    assert smoothness_across_ray(spline, 0) == INFINITE
    assert smoothness_across_ray(spline, 1) == INFINITE


@pytest.mark.parametrize("index", [-1, 2])
def test_smoothness_across_ray_rejects_an_index_out_of_range(index):
    spline = _two_piece(X_AXIS, BiPoly.zero(), Y**2)
    with pytest.raises(DomainError, match=rf"^ray index {index} out of range for 2 rays$"):
        smoothness_across_ray(spline, index)


@pytest.mark.parametrize("index", ["1", None])
def test_smoothness_across_ray_reads_the_index_type_before_its_range(index):
    # -1 is of the right type, so it keeps the range's DomainError (test above)
    spline = _two_piece(X_AXIS, BiPoly.zero(), Y**2)
    message = f"exponents must be nonnegative integers, got ({index!r},)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        smoothness_across_ray(spline, index)
    assert type(caught.value) is ValueError


def test_divisibility_order_cube():
    assert line_divisibility_order((Y + 2 * X) ** 3, 2) == 2


def test_divisibility_order_not_divisible():
    # remainder of y^2 mod (y+2x) is 4x^2 != 0, so not even continuous
    assert line_divisibility_order(Y**2, 2) == -1


def test_divisibility_order_zero_poly():
    assert line_divisibility_order(BiPoly.zero(), 2) == INFINITE


def test_global_order_counterexamples():
    assert global_smoothness_order(build_counterexample([1, 2], 1).spline) == 0
    assert global_smoothness_order(build_counterexample([1, 2, 3], 2).spline) == 1


def test_global_order_not_continuous():
    fan = build_fan([Ray(1, 0), Ray(0, 1)])
    spline = _two_piece(fan, BiPoly.zero(), BiPoly.constant(1))
    assert global_smoothness_order(spline) == -1


def test_origin_partials_square_jump():
    spline = _two_piece(X_AXIS, BiPoly.zero(), Y**2)
    table = origin_partials(spline, 2)
    assert table[(0, 2)] == (0, 2)
    assert table[(1, 1)] == (0, 0)


def test_origin_partials_all_agree_for_identical_pieces():
    spline = _two_piece(X_AXIS, X * Y, X * Y)
    table = origin_partials(spline, 3)
    assert all(len(set(row)) == 1 for row in table.values())


def test_origin_partials_counterexample_first_order():
    spline = build_counterexample([1, 2], 1).spline
    assert origin_partials(spline, 1)[(0, 1)] == (0, 2, 1)


def test_origin_order_halfplane():
    assert origin_smoothness_order(build_halfplane_example(1, [0])) == 1


def test_origin_order_counterexample():
    assert origin_smoothness_order(build_counterexample([1, 2, 3], 2).spline) == 1


def test_origin_order_identical_pieces():
    spline = _two_piece(X_AXIS, X**3 - Y, X**3 - Y)
    assert origin_smoothness_order(spline) == INFINITE


def test_origin_order_of_a_pure_power_jump():
    spline = _two_piece(X_AXIS, BiPoly.zero(), Y**4)
    assert origin_smoothness_order(spline) == 3


def test_verdict_halfplane_not_applicable():
    report = supersmoothness_verdict(build_halfplane_example(1, [0]))
    assert not report.theorem_applicable
    assert report.global_order == 1 and report.origin_order == 1
    assert report.supersmoothness_holds is None


def test_verdict_on_a_hand_made_halfplane_fan_is_not_applicable():
    # The verdict counts the lines through the vertex itself, so a hand-made
    # fan of an opposite pair cannot claim the gain and report it "violated".
    spline = _two_piece(FanPartition((Ray(1, 0), Ray(-1, 0))), BiPoly.zero(), Y**2)
    report = supersmoothness_verdict(spline)
    assert line_count(spline.fan.rays) != len(spline.fan.rays) and not report.theorem_applicable
    assert render_report(report).endswith("theorem applicable: no\nsupersmoothness: not applicable\n")


def test_verdict_counterexample_not_applicable():
    # 4 non-collinear rays but global order 1 < k-2 = 2
    report = supersmoothness_verdict(build_counterexample([1, 2, 3], 2).spline)
    assert not report.theorem_applicable
    assert report.origin_order == 1
    assert report.supersmoothness_holds is None


def test_verdict_identical_pieces_holds_on_any_fan():
    for fan in (X_AXIS, TWO_GENERIC):
        spline = _two_piece(fan, X + Y, X + Y)
        report = supersmoothness_verdict(spline)
        assert report.global_order == INFINITE
        assert report.origin_order == INFINITE
        assert report.supersmoothness_holds is True


def test_verdict_applies_on_k_lines_at_global_order_k_minus_2():
    # Samples of S^r_d over random fans with opposite pairs, r on both sides
    # of k-2; the line count here is the helpers' own, not fan.line_count.
    rng = Random(2013)
    seen = set()
    for _ in range(60):
        k = rng.randint(2, 5)
        fan = random_fan(rng, k, opposite_share=0.4)
        free = distinct_lines(fan.rays) == k
        for r in range(max(k - 3, 0), k):
            for spline in sample_spline_space(fan, r + rng.randint(1, 2), r, count=2, seed=rng.randrange(2**16)):
                report = supersmoothness_verdict(spline)
                assert report.theorem_applicable == (free and report.global_order >= k - 2)
                if report.theorem_applicable:
                    assert report.supersmoothness_holds is True
                seen.add((free, report.global_order >= k - 2))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_report_consistency_on_random_splines():
    rng = Random(101)
    for _ in range(40):
        fan = random_collinear_free_fan(rng, rng.randint(2, 5))
        pieces = tuple(random_bipoly(rng, max_degree=4, terms=5) for _ in fan.rays)
        report = supersmoothness_verdict(PiecewisePoly(fan=fan, pieces=pieces))
        assert report.global_order == min(report.per_ray_order)
        assert report.origin_order >= report.global_order


def _planted_difference(rng: Random, slope: Fraction, multiplicity: int) -> BiPoly:
    extra = random_bipoly(rng, max_degree=3, terms=4)
    if extra.is_zero:
        extra = BiPoly.constant(1)
    return linear_form_power(slope, multiplicity) * extra


def test_restriction_order_equals_divisibility_order():
    # the two independent definitions of "C^r across a line" must agree
    rng = Random(271828)
    for _ in range(100):
        slope = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        diff = _planted_difference(rng, slope, rng.randint(0, 3))
        ray = Ray(1, -slope) if slope > 0 else Ray(-1, slope)
        assert smoothness_order_of_difference(diff, ray) == line_divisibility_order(diff, slope)


AXIS_RAYS = (Ray(0, 1), Ray(0, -1), Ray(1, 0), Ray(-1, 0))


def test_transverse_order_equals_all_partials_order():
    # any integer ray, vertical included, with a planted power of its line form
    rng = Random(314159)
    for case in range(200):
        ray = AXIS_RAYS[case % 4] if case < 40 else Ray(*random_direction(rng))
        line = BiPoly({(1, 0): ray.dy, (0, 1): -ray.dx})
        multiplicity = rng.randint(0, 5)
        diff = line**multiplicity * random_bipoly(rng, max_degree=3, terms=4)
        order = smoothness_order_of_difference(diff, ray)
        assert order == all_partials_order(diff, ray) == transverse_order(diff, ray)
        assert order >= multiplicity - 1


_rationals = st.builds(
    Fraction,
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(1, 10**6),
)
_primitive_rays = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any).map(lambda d: Ray(*d))


def _homogeneous(coeffs) -> BiPoly:
    """sum_i coeffs[i] x^i y^(s-i) with s = len(coeffs) - 1."""
    s = len(coeffs) - 1
    return BiPoly({(i, s - i): c for i, c in enumerate(coeffs)})


@st.composite
def _planted_jumps(draw):
    """A ray and a jump whose homogeneous components carry chosen powers of its line form.

    Component k is c_k * l^m_k * (t^e_k + l*g_k): t = dx*x + dy*y does not
    vanish on the ray, so l divides it exactly m_k times.  Total degrees
    m_k + e_k are distinct, so the components do not mix and the least m_k
    is the multiplicity of l in the jump (none for the zero jump).
    """
    ray = draw(st.sampled_from(AXIS_RAYS) | _primitive_rays)
    line = BiPoly({(1, 0): ray.dy, (0, 1): -ray.dx})
    transverse = BiPoly({(1, 0): ray.dx, (0, 1): ray.dy})
    plan = draw(st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 3)), max_size=3, unique_by=lambda me: sum(me)
    ))
    diff = BiPoly.zero()
    for m, e in plan:
        rest = _homogeneous(draw(st.lists(_rationals, min_size=e, max_size=e))) if e else BiPoly.zero()
        diff = diff + line**m * (transverse**e + line * rest) * draw(_rationals)
    return ray, diff, min((m for m, _ in plan), default=INFINITE)


@settings(max_examples=150, deadline=None)
@given(_planted_jumps(), _rationals)
def test_integer_kernel_matches_reference_routes(case, scale):
    ray, diff, multiplicity = case
    order = smoothness_order_of_difference(diff, ray)
    assert order == multiplicity - 1
    assert order == all_partials_order(diff, ray) == transverse_order(diff, ray)
    # any nonzero multiple of the direction names the same line
    assert smoothness_order_of_difference(diff, (ray.dx * scale, ray.dy * scale)) == order


_small_jumps = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(-3, 3) | _rationals, max_size=6
).map(BiPoly)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(AXIS_RAYS) | _primitive_rays, _small_jumps)
def test_integer_kernel_matches_reference_routes_on_arbitrary_jumps(ray, diff):
    # small coefficients make inexact division steps whose remainder alone decides
    assert smoothness_order_of_difference(diff, ray) == all_partials_order(diff, ray) == transverse_order(diff, ray)


def test_integer_kernel_normalises_the_direction():
    diff = (2 * X + Y) ** 3 * (X - Y) + (2 * X + Y) ** 2 * Fraction(1, 7)
    assert smoothness_order_of_difference(diff, Ray(1, -2)) == 1
    for direction in [(2, -4), (Fraction(1, 2), -1), (-3, 6), (Fraction(-1, 3), Fraction(2, 3))]:
        assert smoothness_order_of_difference(diff, direction) == 1
        assert smoothness_order_of_difference(BiPoly.zero(), direction) == INFINITE
    # the zero difference reads its direction too, so a zero direction is an error
    with pytest.raises(DomainError):
        smoothness_order_of_difference(BiPoly.zero(), (0, 0))


_coefficients = st.integers(-9, 9) | _rationals
_pieces = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), _coefficients, max_size=5).map(BiPoly)


@st.composite
def _drawn_splines(draw):
    """Splines whose neighbours are fresh, zero, identical (INFINITE), off by a
    constant (not continuous) or off by a planted power of their ray's line form."""
    fan = build_fan(draw(st.lists(st.sampled_from(AXIS_RAYS) | _primitive_rays, min_size=2, max_size=5, unique=True)))
    pieces = [draw(_pieces)]
    for ray in fan.rays[1:]:
        previous = pieces[-1]
        kind = draw(st.sampled_from(["fresh", "zero", "same", "jump", "planted"]))
        if kind == "fresh":
            pieces.append(draw(_pieces))
        elif kind == "zero":
            pieces.append(BiPoly.zero())
        elif kind == "same":
            pieces.append(previous)
        elif kind == "jump":
            pieces.append(previous + draw(_rationals))
        else:
            line = BiPoly({(1, 0): ray.dy, (0, 1): -ray.dx})
            pieces.append(previous + line ** draw(st.integers(0, 4)) * draw(_pieces))
    return PiecewisePoly(fan=fan, pieces=tuple(pieces))


@settings(max_examples=200, deadline=None)
@given(_drawn_splines())
def test_orders_from_piece_frames_equal_the_fraction_difference_route(spline):
    report = supersmoothness_verdict(spline)
    assert list(report.per_ray_order) == fraction_ray_orders(spline)
    assert report.origin_order == fraction_origin_order(spline)
    # the one-pass verdict against the public readers and the partials at the origin
    assert report.per_ray_order == tuple(smoothness_across_ray(spline, j) for j in range(len(spline.fan.rays)))
    assert report.global_order == global_smoothness_order(spline)
    assert report.origin_order == origin_smoothness_order(spline) == _origin_order_from_partials(spline)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(AXIS_RAYS) | _primitive_rays, _small_jumps, st.integers(-4, 4).filter(bool) | _rationals)
def test_order_of_difference_equals_the_fraction_route(ray, diff, scale):
    direction = (ray.dx * scale, ray.dy * scale)
    assert smoothness_order_of_difference(diff, direction) == fraction_order_of_difference(diff, direction)


def _origin_order_from_partials(spline):
    """The origin order from the first disagreeing partial in origin_partials."""
    table = origin_partials(spline, max(p.total_degree() for p in spline.pieces))
    disagree = [i + j for (i, j), row in table.items() if len(set(row)) > 1]
    return min(disagree) - 1 if disagree else INFINITE


def test_origin_order_equals_first_disagreeing_partial():
    rng = Random(161803)
    for case in range(120):
        fan = random_collinear_free_fan(rng, rng.randint(2, 5))
        base = random_bipoly(rng, max_degree=4, terms=5)
        if case % 6 == 0:
            pieces = (BiPoly.zero(),) * len(fan.rays)
        elif case % 6 == 1:
            pieces = (base,) * len(fan.rays)
        else:
            # jumps that start at a chosen degree, so low orders often agree
            low = rng.randint(0, 4)
            pieces = (base,) + tuple(
                base + (X + Y) ** low * random_bipoly(rng, max_degree=2, terms=3) for _ in fan.rays[1:]
            )
        spline = PiecewisePoly(fan=fan, pieces=pieces)
        assert origin_smoothness_order(spline) == _origin_order_from_partials(spline)


def test_format_order():
    assert format_order(INFINITE) == "infinite"
    assert format_order(-1) == "not continuous"
    assert format_order(3) == "3"


@pytest.mark.parametrize("order, name", [(None, "NoneType"), ("1", "str"), (1.5, "float"), (True, "bool")])
def test_format_order_names_an_order_of_the_wrong_type(order, name):
    with pytest.raises(TypeError, match=rf"^order must be an int or INFINITE, got {name}$"):
        format_order(order)


def test_render_report_layout():
    report = supersmoothness_verdict(build_counterexample([1, 2], 1).spline)
    text = render_report(report)
    lines = text.splitlines()
    assert lines[0] == "ray 0: order 0"
    assert "global: 0" in lines
    assert "origin: 0" in lines
    assert lines[-2] == "theorem applicable: no"
    assert lines[-1] == "supersmoothness: not applicable"
    assert text.endswith("\n")


def test_verdict_and_report_flag_a_missing_gain(monkeypatch):
    # C^0 on two non-collinear rays, so the theorem applies; the real origin
    # order is 1, and an origin order stuck at the global one must read "violated"
    spline = _two_piece(TWO_GENERIC, BiPoly.zero(), Y * (X + Y))
    assert supersmoothness_verdict(spline).supersmoothness_holds is True
    jump_orders = spline_module._jump_orders
    monkeypatch.setattr(spline_module, "_jump_orders", lambda spline, j: (jump_orders(spline, j)[0],) * 2)
    report = supersmoothness_verdict(spline)
    assert (report.global_order, report.origin_order, report.theorem_applicable) == (0, 0, True)
    assert report.supersmoothness_holds is False
    assert render_report(report).endswith("theorem applicable: yes\nsupersmoothness: violated\n")


def test_verdict_forms_each_jump_once(monkeypatch):
    calls = []
    jump_orders = spline_module._jump_orders
    monkeypatch.setattr(spline_module, "_jump_orders", lambda spline, j: calls.append(j) or jump_orders(spline, j))
    for slopes in ([1, 2], [1, 2, 3, 4], [3, Fraction(-1, 2), 1, Fraction(7, 5), 9]):
        spline = build_counterexample(slopes, len(slopes) - 1).spline
        calls.clear()
        supersmoothness_verdict(spline)
        assert calls == list(range(len(spline.fan.rays)))


def test_list_pieces_are_stored_as_a_tuple():
    spline = PiecewisePoly(fan=X_AXIS, pieces=[BiPoly.zero(), Y**2])
    assert spline.pieces == (BiPoly.zero(), Y**2)


def test_pieces_must_match_ray_count():
    with pytest.raises(Exception):
        PiecewisePoly(fan=X_AXIS, pieces=(BiPoly.zero(),))
