"""Rays from the origin and clockwise fan partitions of the plane.

A Ray is an oriented direction stored as a primitive integer vector, so
equality of rays is equality of oriented directions.  A FanPartition keeps
k >= 2 pairwise-distinct rays in strictly clockwise order starting from the
first input ray; sector j is the region swept clockwise from rays[j]
(inclusive) to rays[j+1] (exclusive).

Clockwise order is decided exactly, without angles: rays are bucketed by
their half-turn relative to the base ray b and, inside an open half-turn,
ordered by the rational (b.v)/(b x v), which is -cot of the clockwise angle
and so grows with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from .errors import (
    DuplicateRayError,
    FanSizeError,
    InvalidDirectionError,
    OriginSectorError,
    SingularDecompositionError,
)


@dataclass(frozen=True, slots=True)
class Ray:
    """Oriented direction from the origin, canonicalized to primitive integers.

    (1/2, -3/4) and (2, -3) construct the same ray; (2, -3) and (-2, 3) do
    not: rays are oriented, so the sign is never flipped.
    """

    dx: int
    dy: int

    def __init__(self, dx, dy):
        # Two plain ints (not bools) need only their gcd divided out.
        if type(dx) is not int or type(dy) is not int:
            fx, fy = Fraction(dx), Fraction(dy)
            scale = lcm(fx.denominator, fy.denominator)
            dx, dy = fx.numerator * (scale // fx.denominator), fy.numerator * (scale // fy.denominator)
        if dx == 0 and dy == 0:
            raise InvalidDirectionError("a ray needs a nonzero direction")
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


def are_collinear(a: Ray, b: Ray) -> bool:
    """True iff the rays lie on one line through the origin (same or opposite)."""
    return _cross(a, b) == 0


def _half_turn_bucket(bx, by, vx, vy) -> int:
    """0: along (bx, by); 1: in the open clockwise half-turn; 2: opposite; 3: the rest."""
    c = bx * vy - by * vx
    if c == 0:
        return 0 if bx * vx + by * vy > 0 else 2
    return 1 if c < 0 else 3


@dataclass(frozen=True, slots=True)
class FanPartition:
    """Clockwise-ordered rays; sector j opens clockwise at rays[j]."""

    rays: tuple[Ray, ...]
    collinear_free: bool

    def __len__(self) -> int:
        return len(self.rays)


def build_fan(rays: Iterable[Ray]) -> FanPartition:
    """Sort rays clockwise starting from the first one and flag collinear pairs.

    Rebuilding from an already-sorted fan returns the same order.
    """
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

    def clockwise_key(v: Ray) -> tuple[int, Fraction | int]:
        bucket = _half_turn_bucket(bx, by, v.dx, v.dy)
        if bucket == 2:  # only the opposite ray; its cross product is 0
            return bucket, 0
        return bucket, Fraction(bx * v.dx + by * v.dy, bx * v.dy - by * v.dx)

    ordered = [base] + sorted(ray_list[1:], key=clockwise_key)
    # Primitive distinct rays share a line only when they are opposite.
    collinear_free = all((-dx, -dy) not in directions for dx, dy in directions)
    return FanPartition(rays=tuple(ordered), collinear_free=collinear_free)


def locate_sector(fan: FanPartition, x, y) -> int:
    """Sector index of a nonzero point; points on rays[j] report j.

    The answer is the last ray, in clockwise order from rays[0], that is not
    clockwise past the point.  A positive multiple of the point lies in the
    same sector, so the point's denominators are cleared once and every
    comparison is an integer cross product.
    """
    fx, fy = Fraction(x), Fraction(y)
    if fx == 0 and fy == 0:
        raise OriginSectorError("the origin lies on every ray and has no sector")
    px, py = fx.numerator * fy.denominator, fy.numerator * fx.denominator
    rays = fan.rays
    bx, by = rays[0].dx, rays[0].dy
    point_bucket = _half_turn_bucket(bx, by, px, py)
    sector = 0
    for j in range(1, len(rays)):
        dx, dy = rays[j].dx, rays[j].dy
        bucket = _half_turn_bucket(bx, by, dx, dy)
        # Past the point: a later bucket, or the same bucket and clockwise
        # beyond it (in bucket 2 both lie on the opposite ray, cross product 0).
        if bucket > point_bucket or (bucket == point_bucket and dx * py - dy * px > 0):
            break
        sector = j
    return sector


def decompose_direction(v1: Ray, v2: Ray, vj: Ray) -> tuple[Fraction, Fraction]:
    """Exact (alpha, beta) with v1 = alpha*v2 + beta*vj, from raw components."""
    det = _cross(v2, vj)
    if det == 0:
        raise SingularDecompositionError(f"{v2!r} and {vj!r} are collinear")
    alpha = Fraction(_cross(v1, vj), det)
    beta = Fraction(_cross(v2, v1), det)
    return alpha, beta
