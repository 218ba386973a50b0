"""Dimension and sampling of smooth piecewise-polynomial spaces over a fan.

Pieces p_{j-1} and p_j of degree <= d join C^r across ray j exactly when
their difference is q_j * l_j^(r+1), where l_j = dy*x - dx*y is the ray's
line form and q_j is a smoothing cofactor of degree <= d - r - 1.  Going
once around the vertex the jumps cancel, so the spline space is P_d plus
the kernel of the conformality condition sum_j q_j l_j^(r+1) = 0.  That
condition splits by homogeneous degree: for each s in r+1..d it is an
integer system with s+1 rows (the monomials of degree s) and k*(s-r)
columns (the coefficients of the cofactors' degree s-r-1 parts).  A kernel
vector gives the cumulative pieces p_j = sum_{i<=j} q_i l_i^(r+1), the same
construction as the counterexample builder's.
"""

from __future__ import annotations

import random
from math import comb

from . import linalg
from .errors import DomainError
from .fan import FanPartition
from .poly import BiPoly
from .spline import PiecewisePoly


def _monomials(degree: int) -> list[tuple[int, int]]:
    return [(i, s - i) for s in range(degree + 1) for i in range(s + 1)]


def _line_power(ray, power: int) -> list[int]:
    """Coefficients of (dy*x - dx*y)^power, indexed by the exponent of x."""
    return [comb(power, a) * ray.dy**a * (-ray.dx) ** (power - a) for a in range(power + 1)]


def _blocks(fan: FanPartition, degree: int, smoothness: int) -> list[tuple[int, list[list[int]], int]]:
    """(s, rows, cols) of the conformality condition in each homogeneous degree s.

    Row i is the coefficient of x^i y^(s-i); column j*(s-r) + b is the
    coefficient of x^b y^(s-r-1-b) in the cofactor of ray j.
    """
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    if smoothness < 0:
        raise DomainError("smoothness must be nonnegative")
    lines = [_line_power(ray, smoothness + 1) for ray in fan.rays]
    blocks = []
    for s in range(smoothness + 1, degree + 1):
        width = s - smoothness
        cols = len(lines) * width
        rows = [[0] * cols for _ in range(s + 1)]
        for j, line in enumerate(lines):
            for b in range(width):
                for a, coeff in enumerate(line):
                    rows[a + b][j * width + b] = coeff
        blocks.append((s, rows, cols))
    return blocks


def spline_space_dimension(fan: FanPartition, degree: int, smoothness: int) -> int:
    """Dimension of the C^smoothness splines of degree <= degree over the fan."""
    blocks = _blocks(fan, degree, smoothness)
    return comb(degree + 2, 2) + sum(cols - linalg.rank(rows, cols=cols) for _, rows, cols in blocks)


def _kernels(fan: FanPartition, degree: int, smoothness: int) -> list[tuple[int, list[list[int]]]]:
    return [(s, linalg.nullspace(rows, cols=cols)) for s, rows, cols in _blocks(fan, degree, smoothness)]


def _size(degree: int, kernels) -> int:
    return comb(degree + 2, 2) + sum(len(vectors) for _, vectors in kernels)


def _combine(fan: FanPartition, degree: int, smoothness: int, kernels, weights) -> PiecewisePoly:
    """The basis combination with these weights: P_d's monomials first, then
    each kernel vector, degree by degree.

    The weighted kernel vectors are summed into one cofactor vector per
    degree, so each piece is assembled once.
    """
    lines = [_line_power(ray, smoothness + 1) for ray in fan.rays]
    globals_count = comb(degree + 2, 2)
    common = {mono: w for mono, w in zip(_monomials(degree), weights[:globals_count]) if w}
    rest = iter(weights[globals_count:])
    jumps = [{} for _ in lines]
    for s, vectors in kernels:
        width = s - smoothness
        cofactor = [0] * (len(lines) * width)
        for vector, w in zip(vectors, rest):
            if w:
                cofactor = [c + w * v for c, v in zip(cofactor, vector)]
        for j, line in enumerate(lines):
            for b in range(width):
                q = cofactor[j * width + b]
                if q:
                    for a, coeff in enumerate(line):
                        mono = (a + b, s - a - b)
                        jumps[j][mono] = jumps[j].get(mono, 0) + q * coeff
    pieces = []
    for jump in jumps:
        for mono, c in jump.items():
            common[mono] = common.get(mono, 0) + c
        pieces.append(BiPoly(common))
    return PiecewisePoly(fan=fan, pieces=tuple(pieces))


def spline_space_basis(fan: FanPartition, degree: int, smoothness: int) -> list[PiecewisePoly]:
    """A basis of the spline space, as piecewise polynomials with integer coefficients:
    the global monomials of degree <= degree, then the cumulative splines of
    the conformality kernel."""
    kernels = _kernels(fan, degree, smoothness)
    dim = _size(degree, kernels)
    return [_combine(fan, degree, smoothness, kernels, [int(i == e) for i in range(dim)]) for e in range(dim)]


def sample_spline_space(fan: FanPartition, degree: int, smoothness: int, count: int,
                        seed: int = 0, coefficient_bound: int = 9) -> list[PiecewisePoly]:
    """Random elements of the spline space: integer combinations of the basis.

    Weights are drawn uniformly from [-coefficient_bound, coefficient_bound]
    with a fixed default seed, so samples are reproducible.
    """
    kernels = _kernels(fan, degree, smoothness)
    dim = _size(degree, kernels)
    rng = random.Random(seed)
    return [
        _combine(fan, degree, smoothness, kernels,
                 [rng.randint(-coefficient_bound, coefficient_bound) for _ in range(dim)])
        for _ in range(count)
    ]
