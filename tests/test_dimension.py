import time
from collections import Counter
from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersmooth import (
    INFINITE,
    BiPoly,
    DomainError,
    PiecewisePoly,
    nullspace,
    Ray,
    build_fan,
    fan_from_slopes,
    global_smoothness_order,
    origin_smoothness_order,
    rank,
    sample_spline_space,
    smoothness_across_ray,
    spline_space_basis,
    spline_space_dimension,
    supersmoothness_verdict,
)
from supersmooth import dimension, linalg
from supersmooth.cli import main
from supersmooth.dimension import _blocks, kernel_sizes
from helpers import (
    distinct_lines,
    fraction_nullspace,
    partial_derivative_dimension,
    random_collinear_free_fan,
    random_fan,
    schumaker_dimension,
    sympy_nullspace,
)

GENERIC_3 = build_fan([Ray(1, 0), Ray(0, -1), Ray(-1, 1)])
GENERIC_4 = build_fan([Ray(1, 0), Ray(1, -1), Ray(-1, -1), Ray(-1, 2)])


def test_three_rays_continuous_linears():
    # three linear jump forms in a 2-dimensional space leave a 1-dim kernel:
    # 3 global linears + 1
    assert spline_space_dimension(GENERIC_3, 1, 0) == 4


def test_three_rays_c1_quadratics():
    # squares of three pairwise independent forms are independent, so only
    # global quadratics remain
    assert spline_space_dimension(GENERIC_3, 2, 1) == 6


def test_four_rays_c1_quadratics():
    # four squares in the 3-dim quadratic space: 6 + 1 > comb(4, 2)
    assert spline_space_dimension(GENERIC_4, 2, 1) == 7


def test_dimension_exceeds_global_polynomials():
    rng = Random(55)
    for n in range(1, 6):
        fan = random_collinear_free_fan(rng, n + 2)
        assert spline_space_dimension(fan, n, n - 1) > comb(n + 2, 2)


def test_dimension_monotonicity():
    rng = Random(60)
    fan = random_collinear_free_fan(rng, 4)
    for degree in range(0, 4):
        dims = [spline_space_dimension(fan, degree, r) for r in range(0, degree + 2)]
        assert dims == sorted(dims, reverse=True)  # non-increasing in smoothness
        assert all(d >= comb(degree + 2, 2) for d in dims)  # globals always embed
    for r in range(0, 3):
        dims = [spline_space_dimension(fan, d, r) for d in range(r, r + 4)]
        assert dims == sorted(dims)  # non-decreasing in degree


def test_basis_members_satisfy_the_smoothness():
    basis = spline_space_basis(GENERIC_3, 2, 1)
    assert len(basis) == spline_space_dimension(GENERIC_3, 2, 1)
    for spline in basis:
        assert global_smoothness_order(spline) >= 1
        assert all(p.total_degree() <= 2 for p in spline.pieces)


def test_sampling_is_reproducible_and_smooth():
    samples_a = sample_spline_space(GENERIC_4, 3, 1, count=5, seed=42)
    samples_b = sample_spline_space(GENERIC_4, 3, 1, count=5, seed=42)
    assert all(a.pieces == b.pieces for a, b in zip(samples_a, samples_b))
    for spline in samples_a:
        for j in range(len(spline.fan.rays)):
            assert smoothness_across_ray(spline, j) >= 1


def test_vertex_gain_on_sampled_splines():
    # C^n splines of degree n+2 over n+2 generic rays gain one full order at
    # the vertex.
    rng = Random(314)
    for n in (1, 2, 3):
        fan = random_collinear_free_fan(rng, n + 2)
        assert spline_space_dimension(fan, n + 2, n) >= comb(n + 4, 2) + 1
        for spline in sample_spline_space(fan, n + 2, n, count=20, seed=n):
            assert origin_smoothness_order(spline) >= n + 1


def test_vertex_gain_above_minimal_smoothness():
    # same gain with smoothness m in {n, n+1} and degree m+2
    rng = Random(2718)
    for n in (1, 2):
        for m in (n, n + 1):
            fan = random_collinear_free_fan(rng, n + 2)
            for spline in sample_spline_space(fan, m + 2, m, count=20, seed=m):
                assert origin_smoothness_order(spline) >= m + 1


def test_no_line_powers_when_smoothness_reaches_the_degree(monkeypatch):
    # S^r_d = P_d for r >= d: no cofactor block, so no (r+1)-th line-form power
    powers = []
    line_power = dimension.line_power
    monkeypatch.setattr(dimension, "line_power", lambda u, v, power: powers.append(power) or line_power(u, v, power))
    assert spline_space_dimension(GENERIC_4, 1, 5000) == 3
    basis = spline_space_basis(GENERIC_4, 2, 2)
    samples = sample_spline_space(GENERIC_4, 2, 9, count=3, seed=4)
    assert powers == []
    k = len(GENERIC_4.rays)
    monomials = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert basis == [PiecewisePoly(fan=GENERIC_4, pieces=(BiPoly({m: 1}),) * k) for m in monomials]
    assert samples == sample_spline_space(GENERIC_4, 2, 2, count=3, seed=4)
    assert all(len(set(s.pieces)) == 1 for s in samples)


def test_kernel_splines_are_built_once_a_call(monkeypatch):
    # one line-form power per ray and one elimination per block, however many samples
    calls = Counter()
    line_power, nullspace = dimension.line_power, linalg.nullspace
    monkeypatch.setattr(dimension, "line_power", lambda *args: calls.update(["line_power"]) or line_power(*args))
    monkeypatch.setattr(linalg, "nullspace", lambda *args, **kw: calls.update(["nullspace"]) or nullspace(*args, **kw))
    degree, smoothness = 5, 1
    counts = []
    for call in (lambda: sample_spline_space(GENERIC_4, degree, smoothness, count=1, seed=7),
                 lambda: sample_spline_space(GENERIC_4, degree, smoothness, count=40, seed=7),
                 lambda: spline_space_basis(GENERIC_4, degree, smoothness)):
        calls.clear()
        call()
        counts.append(dict(calls))
    assert counts == [{"line_power": len(GENERIC_4.rays), "nullspace": degree - smoothness}] * 3


def test_dimension_matches_schumaker_on_random_fans():
    rng = Random(1979)
    seen_lines = set()
    for k in range(2, 10):
        for _ in range(3):
            fan = random_fan(rng, k)
            m = distinct_lines(fan.rays)
            seen_lines.add(k - m)
            for d in range(0, 11):
                for r in range(0, d + 2):
                    assert spline_space_dimension(fan, d, r) == schumaker_dimension(k, m, d, r), (fan, d, r)
    assert {0, 1, 2} <= seen_lines  # no opposite pair, one pair, two pairs


def test_eleven_ray_slope_fan():
    assert spline_space_dimension(fan_from_slopes(range(1, 11)), 12, 9) == 121


def test_dimension_matches_the_partial_derivative_route():
    rng = Random(2013)
    for k in range(2, 6):
        fan = random_fan(rng, k)
        for d in range(0, 5):
            for r in range(0, d + 2):
                assert spline_space_dimension(fan, d, r) == partial_derivative_dimension(fan, d, r), (fan, d, r)


def _coefficient_vectors(splines, degree):
    monomials = [(i, s - i) for s in range(degree + 1) for i in range(s + 1)]
    return [[piece.coefficient(*mono) for piece in spline.pieces for mono in monomials] for spline in splines]


def _assert_spans_the_space(splines, fan, degree, smoothness):
    for spline in splines:
        assert max(p.total_degree() for p in spline.pieces) <= degree
        for j in range(len(fan.rays)):
            assert smoothness_across_ray(spline, j) >= smoothness
    assert rank(_coefficient_vectors(splines, degree)) == len(splines)


def test_basis_is_a_basis_of_the_space():
    rng = Random(77)
    for k, d, r in [(2, 3, 1), (3, 3, 1), (4, 4, 2), (5, 5, 2), (6, 6, 4), (4, 3, 3), (3, 2, 0)]:
        fan = random_fan(rng, k)
        basis = spline_space_basis(fan, d, r)
        assert len(basis) == spline_space_dimension(fan, d, r)
        _assert_spans_the_space(basis, fan, d, r)


def test_samples_span_the_space():
    rng = Random(78)
    for k, d, r in [(3, 3, 1), (4, 4, 2), (5, 5, 3), (4, 2, 0)]:
        fan = random_fan(rng, k)
        dim = spline_space_dimension(fan, d, r)
        samples = sample_spline_space(fan, d, r, count=dim, seed=k)
        assert len(samples) == dim
        _assert_spans_the_space(samples, fan, d, r)


# At degree -3 and below comb(degree + 2, 2) raises ValueError, so validation must run first.
@pytest.mark.parametrize("degree, smoothness", [(-1, 0), (2, -1), (-2, 0), (-3, 0), (-100, 5), (-3, -1)])
def test_negative_degree_or_smoothness_is_domain_error(degree, smoothness):
    for call in (spline_space_dimension, spline_space_basis):
        with pytest.raises(DomainError):
            call(GENERIC_3, degree, smoothness)
    with pytest.raises(DomainError):
        sample_spline_space(GENERIC_3, degree, smoothness, count=1)


def test_negative_count_is_domain_error_before_any_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a negative count is rejected first")

    monkeypatch.setattr(linalg, "nullspace", refuse)
    with pytest.raises(DomainError, match="count must be nonnegative"):
        sample_spline_space(GENERIC_3, 2, 0, count=-1)
    monkeypatch.undo()
    assert sample_spline_space(GENERIC_3, 2, 0, count=0) == []


def _cumulative_splines(fan, degree, smoothness):
    """The kernel splines by public BiPoly arithmetic: for each vector of
    sympy's null basis of each block, the pieces sum_{i<=j} q_i l_i^(r+1)."""
    lines = [BiPoly({(1, 0): ray.dy, (0, 1): -ray.dx}) ** (smoothness + 1) for ray in fan.rays]
    splines = []
    for s, rows, cols in _blocks(fan, degree, smoothness):
        width = s - smoothness
        for vector in sympy_nullspace(rows, cols=cols):
            piece, pieces = BiPoly.zero(), []
            for j, line in enumerate(lines):
                cofactor = BiPoly({(b, width - 1 - b): vector[j * width + b] for b in range(width)})
                piece = piece + cofactor * line
                pieces.append(piece)
            splines.append(tuple(pieces))
    return splines


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5), degree=st.integers(0, 6), data=st.data())
def test_basis_and_samples_equal_the_cumulative_construction(seed, k, degree, data):
    # random_fan puts opposite pairs in about a third of its rays
    smoothness = data.draw(st.integers(0, degree + 1), label="smoothness")
    count = data.draw(st.integers(0, 3), label="count")
    fan = random_fan(Random(seed), k)
    monomials = [(i, s - i) for s in range(degree + 1) for i in range(s + 1)]
    reference = [(BiPoly({mono: 1}),) * k for mono in monomials] + _cumulative_splines(fan, degree, smoothness)
    assert [spline.pieces for spline in spline_space_basis(fan, degree, smoothness)] == reference
    # a sample is the basis combination with weights drawn in basis order, sample by sample
    rng = Random(seed)
    expected = []
    for _ in range(count):
        weights = [rng.randint(-9, 9) for _ in reference]
        expected.append(tuple(
            sum((element[j].scale(w) for w, element in zip(weights, reference)), BiPoly.zero()) for j in range(k)
        ))
    assert [spline.pieces for spline in sample_spline_space(fan, degree, smoothness, count, seed)] == expected


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 6),
    vertical=st.sampled_from([(), (Ray(0, 1),), (Ray(0, -1),), (Ray(0, 1), Ray(0, -1))]),
    smoothness=st.integers(0, 3),
    extra_degree=st.integers(0, 4),
)
def test_block_null_bases_equal_the_fraction_route(seed, k, vertical, smoothness, extra_degree):
    # random_fan puts opposite pairs in about a third of its rays
    fan = random_fan(Random(seed), k)
    fan = build_fan(list(fan.rays) + [ray for ray in vertical if ray not in fan.rays])
    degree = smoothness + extra_degree
    blocks = _blocks(fan, degree, smoothness)
    for (_, rows, cols), kappa in zip(blocks, kernel_sizes(fan, degree, smoothness), strict=True):
        basis = nullspace(rows, cols=cols)
        # sympy's reduced-echelon basis is an oracle independent of linalg
        assert basis == fraction_nullspace(rows, cols=cols) == sympy_nullspace(rows, cols=cols)
        assert len(basis) == kappa


TWO_DIGIT_SLOPES = [Fraction(90 + i, 97 - i % 5) * (-1) ** i for i in range(16)]


def test_two_digit_rational_slopes_at_degree_32_are_fast():
    # Pivoting on the largest entry made the integers grow with the slopes:
    # about 7 s on a 2-core Xeon, against 0.2 s with column-order pivots.
    fan = fan_from_slopes(TWO_DIGIT_SLOPES)
    blocks = _blocks(fan, 32, 16)
    start = time.perf_counter()
    ranks = [linalg.rank(rows, cols=cols) for _, rows, cols in blocks]
    assert time.perf_counter() - start < 2
    kernel = sum(cols for _, _, cols in blocks) - sum(ranks)
    assert kernel == sum(kernel_sizes(fan, 32, 16)) == 2466 - comb(34, 2)


def test_dimension_eliminates_nothing(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the dimension is a closed form")

    monkeypatch.setattr(linalg, "rank", refuse)
    monkeypatch.setattr(linalg, "nullspace", refuse)
    fan = fan_from_slopes(TWO_DIGIT_SLOPES)
    assert spline_space_dimension(fan, 32, 16) == 2466
    slopes = ",".join(map(str, TWO_DIGIT_SLOPES))
    assert main(["dim", "--degree", "32", "--smoothness", "16", "--slopes", slopes]) == 0
    assert capsys.readouterr().out == "2466\n"


def _least_kernel_order(fan, degree, smoothness):
    """rho = min{s : kappa_s > 0} - 1, the least origin order over S^r_d."""
    sizes = kernel_sizes(fan, degree, smoothness)
    return next((s - 1 for s, kappa in enumerate(sizes, smoothness + 1) if kappa), INFINITE)


def test_least_origin_order_of_the_basis_is_read_off_the_kernel_sizes():
    rng = Random(2010)
    random_cases = [(random_fan(rng, k), rng.randint(0, 5)) for k in range(2, 7) for _ in range(5)]
    # three rays at r = 3 gain two orders: rho = 5
    cases = [(GENERIC_3, 7, 3)] + [(fan, r + rng.randint(0, 6), r) for fan, r in random_cases]
    gains = set()
    for fan, d, r in cases:
        rho = _least_kernel_order(fan, d, r)
        orders = [origin_smoothness_order(spline) for spline in spline_space_basis(fan, d, r)]
        assert all(order >= rho for order in orders), (fan, d, r)
        assert min(orders) == rho, (fan, d, r)
        gains.add(rho - r)
    assert {0, 1, 2, INFINITE} <= gains  # S^r_d = P_d gives INFINITE


def test_vertex_gain_of_higher_order_on_sampled_splines():
    # Over k rays on k distinct lines, every C^r spline is C^(r + (r+1)//(k-1))
    # at the vertex (Sorokina, Numer. Math. 116, 2010); from degree gain+1 on,
    # a random element of the space has no more.
    rng = Random(116)
    for k in range(3, 7):
        for r in range(0, 2 * k):
            fan = random_collinear_free_fan(rng, k)
            gain = r + (r + 1) // (k - 1)
            d = gain + 1 + rng.randint(0, 2)
            samples = sample_spline_space(fan, d, r, count=3, seed=r)
            orders = [supersmoothness_verdict(spline).origin_order for spline in samples]
            assert min(orders) == gain, (fan, d, r)


@pytest.mark.parametrize("seed", [0, 5, 42, 2**32 - 1])
@pytest.mark.parametrize("count", [0, 1, 19, 2000])
def test_sample_weights_are_the_randint_draws(seed, count):
    # the rejection loop stands in for randint(-9, 9): the same weights, and
    # the generator left where randint leaves it, so later samples agree too
    rng, reference = Random(seed), Random(seed)
    assert dimension._sample_weights(rng, count) == [reference.randint(-9, 9) for _ in range(count)]
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("fan, degree, smoothness, count, seed", [
    (GENERIC_4, 5, 1, 30, 3),
    (GENERIC_3, 6, 2, 12, 0),
    (build_fan([Ray(1, 0), Ray(0, 1), Ray(-1, 0), Ray(0, -1)]), 4, 1, 8, 9),  # two opposite pairs
])
def test_samples_are_the_basis_combinations_of_randint_weights(fan, degree, smoothness, count, seed):
    basis = spline_space_basis(fan, degree, smoothness)
    rng = Random(seed)
    expected = []
    for _ in range(count):
        weights = [rng.randint(-9, 9) for _ in basis]
        expected.append(tuple(
            sum((element.pieces[j].scale(w) for w, element in zip(weights, basis)), BiPoly.zero())
            for j in range(len(fan.rays))
        ))
    assert [spline.pieces for spline in sample_spline_space(fan, degree, smoothness, count, seed)] == expected
