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

Block s has rank min(s+1, m*(s-r)) when the k rays lie on m distinct lines
(Schumaker 1979; Lai & Schumaker, Spline Functions on Triangulations, 2007,
ch. 9), so dim S^r_d = C(d+2, 2) + sum_s kappa_s with kernel sizes
kappa_s = k*(s-r) - min(s+1, m*(s-r)); only the basis needs elimination.

Cost: the basis and the samples build the kernel splines once a call (one
line-form power per ray, one elimination per block, none when r >= d), as
columns: per piece and monomial of degree s, its coefficient in each of block
s's kernel splines.  The basis reads the columns; a sample costs one integer
dot product per piece and monomial of degree > r.
"""

from __future__ import annotations

import random
from math import comb
from operator import mul

from . import linalg
from .errors import DomainError
from .fan import FanPartition, line_count
from .poly import BiPoly, check_exponents, line_power
from .spline import PiecewisePoly

SAMPLE_WEIGHT_BOUND = 9


def _monomials(degree: int) -> list[tuple[int, int]]:
    return [(i, s - i) for s in range(degree + 1) for i in range(s + 1)]


def _blocks(fan: FanPartition, degree: int, smoothness: int) -> list[tuple[int, list[list[int]], int]]:
    """(s, rows, cols) of the conformality condition in each homogeneous degree s.

    Row i is the coefficient of x^i y^(s-i); column j*(s-r) + b is the
    coefficient of x^b y^(s-r-1-b) in the cofactor of ray j.
    """
    if smoothness >= degree:
        return []  # S^r_d = P_d; the (r+1)-th line-form powers would go unused
    lines = [line_power(ray.dy, -ray.dx, smoothness + 1) for ray in fan.rays]
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


def kernel_sizes(fan: FanPartition, degree: int, smoothness: int) -> list[int]:
    """Kernel size kappa_s of the conformality block in each degree s = r+1..d, in closed form."""
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    if smoothness < 0:
        raise DomainError("smoothness must be nonnegative")
    check_exponents(degree, smoothness)
    k = len(fan.rays)
    m = line_count(fan.rays)
    return [k * (s - smoothness) - min(s + 1, m * (s - smoothness)) for s in range(smoothness + 1, degree + 1)]


def spline_space_dimension(fan: FanPartition, degree: int, smoothness: int) -> int:
    """Dimension of the C^smoothness splines of degree <= degree over the fan."""
    # kernel_sizes first: it rejects a negative degree before comb sees it.
    return sum(kernel_sizes(fan, degree, smoothness)) + comb(degree + 2, 2)


def _kernel_splines(fan: FanPartition, degree: int, smoothness: int):
    """Per block: its slice of the weight vector, and per piece j the pairs
    (x^i y^(s-i), column) where column[v] is that coefficient of kernel vector
    v's cumulative spline p_j = sum_{i<=j} q_i l_i^(r+1).  Block s's columns of
    ray i map the cofactor q_i to its jump, so p_j is their running sum."""
    splines = []
    start = comb(degree + 2, 2)
    for s, rows, cols in _blocks(fan, degree, smoothness):
        vectors = linalg.nullspace(rows, cols=cols)
        width = s - smoothness
        running = [[0] * len(vectors) for _ in rows]
        pieces = []
        for j in range(0, cols, width):
            cofactors = [vector[j:j + width] for vector in vectors]
            running = [[c + sum(map(mul, part, q)) for c, q in zip(column, cofactors)]
                       for part, column in zip((row[j:j + width] for row in rows), running)]
            pieces.append([((i, s - i), column) for i, column in enumerate(running) if any(column)])
        splines.append((slice(start, start + len(vectors)), pieces))
        start += len(vectors)
    return splines


def _combine(fan: FanPartition, degree: int, splines, weights) -> PiecewisePoly:
    """The basis combination with these weights: P_d's monomials first, then
    each kernel spline, block by block.

    Each piece starts from the global monomials' weights and adds, for each
    of its columns, one integer dot product with the block's weights.
    """
    common = dict(zip(_monomials(degree), weights))
    pieces = [dict(common) for _ in fan.rays]
    for block, columns_by_piece in splines:
        block_weights = weights[block]
        for piece, columns in zip(pieces, columns_by_piece):
            for mono, column in columns:
                piece[mono] += sum(map(mul, block_weights, column))
    return PiecewisePoly(fan=fan, pieces=tuple(BiPoly._from_frame(piece, 1) for piece in pieces))


def spline_space_basis(fan: FanPartition, degree: int, smoothness: int) -> list[PiecewisePoly]:
    """A basis of the spline space, as piecewise polynomials with integer coefficients:
    the global monomials of degree <= degree, then the cumulative splines of
    the conformality kernel."""
    spline_space_dimension(fan, degree, smoothness)  # rejects a degree or smoothness that is not an int >= 0
    basis = [PiecewisePoly(fan, (BiPoly._from_frame({mono: 1}, 1),) * len(fan.rays)) for mono in _monomials(degree)]
    for block, columns_by_piece in _kernel_splines(fan, degree, smoothness):
        for v in range(block.stop - block.start):
            pieces = tuple(BiPoly._from_frame({mono: column[v] for mono, column in columns}, 1)
                           for columns in columns_by_piece)
            basis.append(PiecewisePoly(fan, pieces))
    return basis


def sample_spline_space(fan: FanPartition, degree: int, smoothness: int, count: int,
                        seed: int = 0) -> list[PiecewisePoly]:
    """Random elements of the spline space: integer combinations of the basis.

    Weights are drawn uniformly from [-SAMPLE_WEIGHT_BOUND, SAMPLE_WEIGHT_BOUND]
    with a fixed default seed, so samples are reproducible.  A negative count
    is a DomainError.
    """
    dim = spline_space_dimension(fan, degree, smoothness)
    if count < 0:
        raise DomainError("count must be nonnegative")
    check_exponents(count)
    splines = _kernel_splines(fan, degree, smoothness)
    rng = random.Random(seed)
    return [_combine(fan, degree, splines, _sample_weights(rng, dim)) for _ in range(count)]


def _sample_weights(rng: random.Random, count: int) -> list[int]:
    """`count` draws of rng.randint(-SAMPLE_WEIGHT_BOUND, SAMPLE_WEIGHT_BOUND) by the
    rejection loop CPython's randint runs (getrandbits of the span's bit length
    until below the span), without its calls per draw: the same weights and
    generator state."""
    span = 2 * SAMPLE_WEIGHT_BOUND + 1
    bits = span.bit_length()
    getrandbits = rng.getrandbits
    weights = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= span:
            r = getrandbits(bits)
        weights.append(r - SAMPLE_WEIGHT_BOUND)
    return weights
