import dataclasses
import math
import time
from decimal import Decimal
from fractions import Fraction
from functools import cmp_to_key
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supersmooth import (
    DomainError,
    DuplicateRayError,
    FanPartition,
    FanSizeError,
    InvalidDirectionError,
    OriginSectorError,
    Ray,
    SingularDecompositionError,
    build_fan,
    decompose_direction,
    locate_sector,
)
from supersmooth.fan import line_count
from helpers import (
    clockwise_cmp,
    distinct_lines,
    fraction_locate_sector,
    on_one_line,
    random_collinear_free_fan,
    random_direction,
)


def test_ray_canonical_form():
    assert Ray(Fraction(1, 2), Fraction(-3, 4)) == Ray(2, -3)
    assert Ray(4, 6) == Ray(2, 3)
    assert Ray(2, 3) != Ray(-2, -3)  # oriented: sign is never flipped


def test_ray_rejects_origin():
    for zero in [(0, 0), (False, 0), (0, Fraction(0))]:
        with pytest.raises(InvalidDirectionError, match="a ray needs a nonzero direction"):
            Ray(*zero)


_nonzero_pairs = st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30)).filter(any)


@given(_nonzero_pairs)
def test_ray_from_ints_equals_ray_from_fractions(pair):
    p, q = pair
    ray = Ray(p, q)
    assert ray == Ray(Fraction(p), Fraction(q))
    assert type(ray.dx) is int and type(ray.dy) is int


def test_ray_from_bools():
    # bools carry numerator and denominator like ints, and give int components
    assert Ray(True, False) == Ray(1, 0)
    assert type(Ray(True, False).dx) is int


@pytest.mark.parametrize("dx, dy, name", [(0.5, 1, "float"), ("1", 2, "str"), (1, 2.0, "float")])
def test_ray_rejects_inexact_components(dx, dy, name):
    with pytest.raises(TypeError, match=f"^expected an exact rational, got {name}$"):
        Ray(dx, dy)


def test_collinearity():
    assert on_one_line(Ray(1, 0), Ray(-2, 0))
    assert not on_one_line(Ray(1, 0), Ray(0, 1))
    assert on_one_line(Ray(2, 4), Ray(1, 2))


def test_build_fan_keeps_clockwise_input():
    fan = build_fan([Ray(1, 0), Ray(1, -1), Ray(1, -2)])
    assert fan.rays == (Ray(1, 0), Ray(1, -1), Ray(1, -2))
    assert fan.collinear_free


def test_build_fan_reorders_clockwise():
    fan = build_fan([Ray(1, 0), Ray(0, 1), Ray(-1, 0)])
    assert fan.rays == (Ray(1, 0), Ray(-1, 0), Ray(0, 1))
    assert not fan.collinear_free


def test_build_fan_rejects_duplicates():
    with pytest.raises(DuplicateRayError, match=r"^duplicate oriented direction Ray\(1, 0\)$"):
        build_fan([Ray(1, 0), Ray(2, 0)])


def test_build_fan_rejects_single_ray():
    with pytest.raises(FanSizeError, match="^a fan partition needs at least 2 rays$"):
        build_fan([Ray(1, 0)])


def test_build_fan_idempotent():
    rng = Random(11)
    for _ in range(20):
        fan = random_collinear_free_fan(rng, rng.randint(2, 7))
        assert build_fan(fan.rays).rays == fan.rays


COMPASS = build_fan([Ray(1, 0), Ray(0, -1), Ray(-1, 0), Ray(0, 1)])


def test_build_fan_is_the_constructor():
    assert build_fan is FanPartition


def test_constructor_rejects_a_set_flag():
    with pytest.raises(TypeError):
        FanPartition(rays=(Ray(1, 0), Ray(-1, 0)), collinear_free=True)


def test_replace_sorts_the_new_rays_and_derives_the_flag():
    fan = dataclasses.replace(COMPASS, rays=[Ray(1, 0), Ray(1, 1), Ray(0, -1)])
    assert fan.rays == FanPartition([Ray(1, 0), Ray(1, 1), Ray(0, -1)]).rays == (Ray(1, 0), Ray(0, -1), Ray(1, 1))
    assert fan.collinear_free
    assert not dataclasses.replace(fan, rays=[Ray(1, 0), Ray(-1, 0)]).collinear_free


def test_locate_sector_interior_point():
    assert locate_sector(COMPASS, 1, -1) == 0
    # ints, Fractions and finite floats, each read exactly
    assert locate_sector(COMPASS, 0.5, -1.5) == locate_sector(COMPASS, Fraction(1, 2), -1) == 0


def test_locate_sector_on_ray_reports_that_ray():
    assert locate_sector(COMPASS, 0, 5) == 3
    assert locate_sector(COMPASS, 7, 0) == 0
    assert locate_sector(COMPASS, True, 0.0) == 0


def test_locate_sector_upper_left():
    # upper-left quadrant opens clockwise at ray 2 (the negative x-axis)
    assert locate_sector(COMPASS, -1, 1) == 2
    assert locate_sector(COMPASS, -1e-300, 1e300) == 2


def test_locate_sector_rejects_origin():
    for x, y in [(0, 0), (0.0, -0.0), (Fraction(0), False)]:
        with pytest.raises(OriginSectorError):
            locate_sector(COMPASS, x, y)


@pytest.mark.parametrize(
    "x, y, error",
    [
        ("1", "2", TypeError),
        (1, "2", TypeError),
        (Decimal("0.5"), 1, TypeError),
        (None, 1, TypeError),
        (math.inf, 1, DomainError),
        (1, -math.inf, DomainError),
        (math.nan, 0, DomainError),
        (0.0, math.nan, DomainError),
    ],
)
def test_locate_sector_rejects_a_coordinate_that_is_not_exact_or_a_finite_float(x, y, error):
    with pytest.raises(error, match="^expected an exact rational|must be finite"):
        locate_sector(COMPASS, x, y)


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def test_locate_sector_membership_property():
    # The reported sector must contain the point in its closed clockwise
    # sweep, verified independently: cross/dot signs for the opening ray,
    # the pseudo-angle oracle `clockwise_cmp` for the sweep.
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
        assert clockwise_cmp(u, p, w) < 0


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
            on_one_line(a, b) for i, a in enumerate(rays) for b in rays[i + 1 :]
        )
        assert fan.collinear_free == expected


@st.composite
def _ray_lists(draw):
    """Rays with repeats and opposite pairs, so several may share a line."""
    rays = []
    for d in draw(st.lists(_directions, min_size=1, max_size=8)):
        ray = Ray(*d)
        rays.append(draw(st.sampled_from([ray, Ray(-ray.dx, -ray.dy)] + rays)))
    return rays


@given(_ray_lists())
def test_line_count_equals_the_distinct_lines_and_the_pairwise_checks(rays):
    assert line_count(rays) == distinct_lines(rays)
    distinct = list(dict.fromkeys(rays))
    if len(distinct) >= 2:
        pairwise_free = not any(on_one_line(a, b) for i, a in enumerate(distinct) for b in distinct[i + 1:])
        assert FanPartition(distinct).collinear_free == pairwise_free


# 30-digit directions within a few units of a multiple of one of four small
# ones: two near one line have a cross product far below their components'
# products, so a rounded cross product would get its sign wrong.
_near_small_directions = st.tuples(
    st.sampled_from([(1, 0), (0, -1), (1, 1), (-2, 3)]), st.integers(10**29, 10**30), _directions
).map(lambda t: (t[0][0] * t[1] + t[2][0], t[0][1] * t[1] + t[2][1]))


@st.composite
def _ray_inputs(draw):
    """Distinct rays in any order, with axis rays, opposite pairs and 30-digit
    components, as Rays or Fraction tuples."""
    rays = []
    for d in draw(st.lists(st.one_of(_directions, _nonzero_pairs, _near_small_directions), min_size=2, max_size=8)):
        candidates = [Ray(*d)] + ([Ray(-d[0], -d[1])] if draw(st.booleans()) else [])
        rays.extend(r for r in candidates if r not in rays)
    if len(rays) < 2:
        rays.append(Ray(-rays[0].dx, -rays[0].dy))
    rays = draw(st.permutations(rays))
    if draw(st.booleans()):
        # a positive rational multiple of each direction names the same ray
        scales = [draw(st.fractions(min_value=Fraction(1, 9), max_value=9)) for _ in rays]
        return rays, [(r.dx * scale, r.dy * scale) for r, scale in zip(rays, scales)]
    return rays, rays


@given(_ray_inputs())
def test_build_fan_order_matches_the_clockwise_comparator(case):
    rays, given_rays = case
    fan = build_fan(given_rays)
    base = rays[0]
    expected = [base] + sorted(rays[1:], key=cmp_to_key(lambda u, v: clockwise_cmp(base, u, v)))
    assert list(fan.rays) == expected
    pairwise_free = not any(
        on_one_line(a, b) for i, a in enumerate(rays) for b in rays[i + 1:]
    )
    assert fan.collinear_free == pairwise_free


def test_large_fan_builds_in_bounded_time():
    # Collinear-free is the worst case: no collinear pair ends the check early.
    rng = Random(53)
    rays, lines = [], set()
    while len(rays) < 4000:
        ray = Ray(*random_direction(rng, bound=100))
        line = max((ray.dx, ray.dy), (-ray.dx, -ray.dy))
        if line not in lines:
            lines.add(line)
            rays.append(ray)
    start = time.perf_counter()
    fan = build_fan(rays)
    elapsed = time.perf_counter() - start
    assert len(fan.rays) == 4000 and fan.collinear_free
    # a scan over all pairs of rays takes seconds at this size
    assert elapsed < 1.0
