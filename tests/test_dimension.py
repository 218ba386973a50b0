from math import comb
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supersmooth import (
    DomainError,
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
)
from supersmooth.dimension import _blocks
from helpers import (
    distinct_lines,
    fraction_nullspace,
    partial_derivative_dimension,
    random_collinear_free_fan,
    random_fan,
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


def schumaker_dimension(k: int, m: int, degree: int, smoothness: int) -> int:
    """Schumaker's (1979) dim S^r_d on a vertex star of k rays on m distinct lines."""
    d, r = degree, smoothness
    if r >= d:
        return comb(d + 2, 2)
    return comb(r + 2, 2) + k * comb(d - r + 1, 2) + sum(max(r + j + 1 - j * m, 0) for j in range(1, d - r + 1))


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
        assert spline.max_total_degree() <= degree
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


@pytest.mark.parametrize("degree, smoothness", [(-1, 0), (2, -1)])
def test_negative_degree_or_smoothness_is_domain_error(degree, smoothness):
    for call in (spline_space_dimension, spline_space_basis):
        with pytest.raises(DomainError):
            call(GENERIC_3, degree, smoothness)
    with pytest.raises(DomainError):
        sample_spline_space(GENERIC_3, degree, smoothness, count=1)


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
    for _, rows, cols in _blocks(fan, smoothness + extra_degree, smoothness):
        assert nullspace(rows, cols=cols) == fraction_nullspace(rows, cols=cols)
