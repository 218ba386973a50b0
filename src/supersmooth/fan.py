"""Rays from the origin and clockwise fan partitions of the plane.

A Ray is an oriented direction stored as a primitive integer vector, so
equality of rays is equality of oriented directions.  A FanPartition keeps
k >= 2 pairwise-distinct rays in strictly clockwise order starting from the
first input ray; sector j is the region swept clockwise from rays[j]
(inclusive) to rays[j+1] (exclusive).  Its constructor (`build_fan` is the
same callable) is the only way to build one: it checks and sorts the rays and
derives `collinear_free` from `line_count`, the one rule for rays on one line.

Clockwise order is decided exactly, without angles, by one integer
comparator: half-turn buckets relative to the base b first, then, inside one
open half-turn, the sign of a cross product.  `FanPartition`, `locate_sector`
and `row_crossings` (which rays a grid row meets, in order) all read this one
rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable, Iterator

from .errors import DuplicateRayError, FanSizeError, OriginSectorError, SingularDecompositionError
from .rational import clear_direction, real_ratio


@dataclass(frozen=True, slots=True)
class Ray:
    """Oriented direction from the origin, canonicalized to primitive integers.

    Components pass `rational.clear_direction`: exact, not both zero.
    (1/2, -3/4) and (2, -3) construct the same ray; (2, -3) and (-2, 3) do
    not: rays are oriented, so the sign is never flipped.
    """

    dx: int
    dy: int

    def __init__(self, dx, dy):
        dx, dy, _ = clear_direction(dx, dy)
        content = gcd(dx, dy)
        object.__setattr__(self, "dx", dx // content)
        object.__setattr__(self, "dy", dy // content)

    def __iter__(self) -> Iterator[int]:
        yield self.dx
        yield self.dy

    def __repr__(self) -> str:
        return f"Ray({self.dx}, {self.dy})"


def _cross(a, b) -> Fraction | int:
    ax, ay = a
    bx, by = b
    return ax * by - ay * bx


def line_count(rays: Iterable[Ray]) -> int:
    """Number of lines through the origin that carry the rays: a ray and its
    opposite share one, and so do repeated rays."""
    return len({(r.dx, r.dy) if (r.dx, r.dy) > (0, 0) else (-r.dx, -r.dy) for r in rays})


def _half_turn_bucket(bx, by, vx, vy) -> int:
    """0: along (bx, by); 1: in the open clockwise half-turn; 2: opposite; 3: the rest."""
    c = bx * vy - by * vx
    if c == 0:
        return 0 if bx * vx + by * vy > 0 else 2
    return 1 if c < 0 else 3


def _clockwise_cmp(bx, by, ux, uy, vx, vy) -> int:
    """-1, 0 or 1 as u comes before, level with or after v, clockwise from b;
    inside one bucket, u x v < 0 exactly when v is clockwise past u."""
    bu, bv = _half_turn_bucket(bx, by, ux, uy), _half_turn_bucket(bx, by, vx, vy)
    if bu != bv:
        return -1 if bu < bv else 1
    c = ux * vy - uy * vx
    return (c > 0) - (c < 0)


@dataclass(frozen=True, slots=True)
class FanPartition:
    """The rays sorted clockwise from the first one; sector j opens clockwise
    at rays[j].  Rebuilding from `rays` keeps the order."""

    rays: tuple[Ray, ...]
    collinear_free: bool = field(init=False)

    def __init__(self, rays: Iterable[Ray]):
        ray_list = [r if isinstance(r, Ray) else Ray(*r) for r in rays]
        if len(ray_list) < 2:
            raise FanSizeError("a fan partition needs at least 2 rays")
        directions = set()
        for r in ray_list:
            if (r.dx, r.dy) in directions:
                raise DuplicateRayError(f"duplicate oriented direction {r!r}")
            directions.add((r.dx, r.dy))
        base = ray_list[0]
        bx, by = base.dx, base.dy
        key = cmp_to_key(lambda u, v: _clockwise_cmp(bx, by, u.dx, u.dy, v.dx, v.dy))
        object.__setattr__(self, "rays", (base, *sorted(ray_list[1:], key=key)))
        object.__setattr__(self, "collinear_free", line_count(ray_list) == len(ray_list))


build_fan = FanPartition


def locate_sector(fan: FanPartition, x, y) -> int:
    """Sector index of a nonzero point; points on rays[j] report j.

    A coordinate is exact or a finite float, read exactly (`rational.real_ratio`);
    any other type is a TypeError and an infinite or NaN float a DomainError.
    The answer is the last ray, in clockwise order from rays[0], that is not
    clockwise past the point.  A positive multiple of the point lies in the
    same sector, so the point's denominators are cleared once and every
    comparison is an integer cross product.
    """
    (a, b), (e, f) = real_ratio(x, "a point coordinate"), real_ratio(y, "a point coordinate")
    px, py = a * f, e * b
    if not (px or py):
        raise OriginSectorError("the origin lies on every ray and has no sector")
    rays = fan.rays
    bx, by = rays[0].dx, rays[0].dy
    sector = 0
    for j in range(1, len(rays)):
        if _clockwise_cmp(bx, by, rays[j].dx, rays[j].dy, px, py) > 0:
            break
        sector = j
    return sector


def row_crossings(fan: FanPartition, sign: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """How rows y with the given sign (+1 or -1) meet the rays, left to right.

    Returns the sector before the first crossing and, per ray with dy of that
    sign in the order met, (dx, dy, sector on the ray, sector past it).  The
    fan is clockwise, so a row above the origin meets its rays clockwise
    from (-1, 0) and a row below meets them counterclockwise; past rays[j]
    lies sector j above and j-1 below.  A half that no ray enters lies in
    one sector.
    """
    rays, k = fan.rays, len(fan.rays)
    key = cmp_to_key(lambda i, j: _clockwise_cmp(-1, 0, rays[i].dx, rays[i].dy, rays[j].dx, rays[j].dy))
    met = sorted((j for j, r in enumerate(rays) if r.dy * sign > 0), key=key, reverse=sign < 0)
    if not met:
        return locate_sector(fan, 0, sign), []
    crossings = [(rays[j].dx, rays[j].dy, j, j if sign > 0 else (j - 1) % k) for j in met]
    return (met[0] - 1) % k if sign > 0 else met[0], crossings


def decompose_direction(v1: Ray, v2: Ray, vj: Ray) -> tuple[Fraction, Fraction]:
    """Exact (alpha, beta) with v1 = alpha*v2 + beta*vj, from raw components."""
    det = _cross(v2, vj)
    if det == 0:
        raise SingularDecompositionError(f"{v2!r} and {vj!r} are collinear")
    alpha = Fraction(_cross(v1, vj), det)
    beta = Fraction(_cross(v2, v1), det)
    return alpha, beta
