from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supersmooth import (
    DuplicateRayError,
    FanSizeError,
    InvalidDirectionError,
    OriginSectorError,
    Ray,
    SingularDecompositionError,
    are_collinear,
    build_fan,
    decompose_direction,
    locate_sector,
)
from helpers import fraction_locate_sector, random_collinear_free_fan, random_direction


def test_ray_canonical_form():
    assert Ray(Fraction(1, 2), Fraction(-3, 4)) == Ray(2, -3)
    assert Ray(4, 6) == Ray(2, 3)
    assert Ray(2, 3) != Ray(-2, -3)  # oriented: sign is never flipped


def test_ray_rejects_origin():
    with pytest.raises(InvalidDirectionError):
        Ray(0, 0)


def test_collinearity():
    assert are_collinear(Ray(1, 0), Ray(-2, 0))
    assert not are_collinear(Ray(1, 0), Ray(0, 1))
    assert are_collinear(Ray(2, 4), Ray(1, 2))


def test_build_fan_keeps_clockwise_input():
    fan = build_fan([Ray(1, 0), Ray(1, -1), Ray(1, -2)])
    assert fan.rays == (Ray(1, 0), Ray(1, -1), Ray(1, -2))
    assert fan.collinear_free


def test_build_fan_reorders_clockwise():
    fan = build_fan([Ray(1, 0), Ray(0, 1), Ray(-1, 0)])
    assert fan.rays == (Ray(1, 0), Ray(-1, 0), Ray(0, 1))
    assert not fan.collinear_free


def test_build_fan_rejects_duplicates():
    with pytest.raises(DuplicateRayError):
        build_fan([Ray(1, 0), Ray(2, 0)])


def test_build_fan_rejects_single_ray():
    with pytest.raises(FanSizeError):
        build_fan([Ray(1, 0)])


def test_build_fan_idempotent():
    rng = Random(11)
    for _ in range(20):
        fan = random_collinear_free_fan(rng, rng.randint(2, 7))
        assert build_fan(fan.rays).rays == fan.rays


COMPASS = build_fan([Ray(1, 0), Ray(0, -1), Ray(-1, 0), Ray(0, 1)])


def test_locate_sector_interior_point():
    assert locate_sector(COMPASS, 1, -1) == 0


def test_locate_sector_on_ray_reports_that_ray():
    assert locate_sector(COMPASS, 0, 5) == 3
    assert locate_sector(COMPASS, 7, 0) == 0


def test_locate_sector_upper_left():
    # upper-left quadrant opens clockwise at ray 2 (the negative x-axis)
    assert locate_sector(COMPASS, -1, 1) == 2


def test_locate_sector_rejects_origin():
    with pytest.raises(OriginSectorError):
        locate_sector(COMPASS, 0, 0)


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def test_locate_sector_membership_property():
    # The reported sector must contain the point in its closed clockwise
    # sweep, verified independently by cross/dot sign tests.
    rng = Random(23)
    for _ in range(200):
        fan = random_collinear_free_fan(rng, rng.randint(2, 6))
        p = random_direction(rng, bound=9)
        j = locate_sector(fan, *p)
        u = fan.rays[j]
        w = fan.rays[(j + 1) % len(fan.rays)]
        if _cross(tuple(u), p) == 0 and u.dx * p[0] + u.dy * p[1] > 0:
            continue  # on the opening ray itself: included by convention
        # strictly inside: sweeping clockwise from u must reach p before w
        # (a point opposite u is a half-turn in, legal for wide sectors)
        assert _clockwise_strictly_between(tuple(u), p, tuple(w))


# Small integer directions hit the axes, so vertical rays are common.
_directions = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda d: d != (0, 0))


@st.composite
def _fans(draw):
    """Fans in any input order, some rays paired with their opposites."""
    rays = []
    for d in draw(st.lists(_directions, min_size=1, max_size=6)):
        candidates = [Ray(*d)] + ([Ray(-d[0], -d[1])] if draw(st.booleans()) else [])
        rays.extend(r for r in candidates if r not in rays)
    if len(rays) < 2:
        rays.append(Ray(-rays[0].dx, -rays[0].dy))
    return build_fan(draw(st.permutations(rays)))


def _points(fan):
    coordinates = st.one_of(
        st.integers(-9, 9),
        st.fractions(max_denominator=50),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    ray = st.sampled_from(fan.rays)
    on_ray = st.one_of(
        st.tuples(ray, st.fractions(min_value=0, max_value=100).filter(bool)).map(
            lambda rs: (rs[0].dx * rs[1], rs[0].dy * rs[1])
        ),
        # dyadic floats represent a point on the ray exactly
        st.tuples(ray, st.integers(-30, 30)).map(
            lambda re: (re[0].dx * 2.0 ** re[1], re[0].dy * 2.0 ** re[1])
        ),
    )
    return st.one_of(st.tuples(coordinates, coordinates), on_ray)


@given(_fans(), st.data())
def test_locate_sector_matches_fraction_route(fan, data):
    x, y = data.draw(_points(fan))
    if Fraction(x) == 0 and Fraction(y) == 0:
        with pytest.raises(OriginSectorError):
            locate_sector(fan, x, y)
        return
    assert locate_sector(fan, x, y) == fraction_locate_sector(fan, x, y)


def _clockwise_bucket(base, v):
    c = _cross(base, v)
    d = base[0] * v[0] + base[1] * v[1]
    if c == 0:
        return 0 if d > 0 else 2
    return 1 if c < 0 else 3


def _clockwise_strictly_between(u, p, w):
    bucket_p = _clockwise_bucket(u, p)
    bucket_w = _clockwise_bucket(u, w)
    if bucket_p != bucket_w:
        return bucket_p < bucket_w
    return _cross(p, w) < 0


def test_decompose_direction_examples():
    assert decompose_direction(Ray(1, 0), Ray(0, 1), Ray(1, 1)) == (-1, 1)
    assert decompose_direction(Ray(1, 0), Ray(0, 1), Ray(1, -1)) == (1, 1)


def test_decompose_direction_rejects_collinear():
    with pytest.raises(SingularDecompositionError):
        decompose_direction(Ray(1, 0), Ray(1, 1), Ray(2, 2))


def test_decompose_direction_reconstructs_exactly():
    rng = Random(37)
    for _ in range(100):
        fan = random_collinear_free_fan(rng, 3)
        v1, v2, vj = fan.rays
        alpha, beta = decompose_direction(v1, v2, vj)
        assert alpha * v2.dx + beta * vj.dx == v1.dx
        assert alpha * v2.dy + beta * vj.dy == v1.dy


def test_collinear_free_matches_pairwise_checks():
    rng = Random(41)
    for _ in range(50):
        rays = []
        while len(rays) < 4:
            r = Ray(*random_direction(rng))
            if r not in rays:
                rays.append(r)
        try:
            fan = build_fan(rays)
        except DuplicateRayError:
            continue
        expected = not any(
            are_collinear(a, b) for i, a in enumerate(rays) for b in rays[i + 1 :]
        )
        assert fan.collinear_free == expected
