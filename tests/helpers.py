"""Shared randomized generators and reference routes for the test suite (all seeded by callers)."""

from fractions import Fraction
from math import factorial, gcd, lcm, perm
from random import Random

from supersmooth import (
    INFINITE,
    NOT_CONTINUOUS,
    BiPoly,
    FanPartition,
    OriginSectorError,
    PiecewisePoly,
    Ray,
    build_fan,
    directional_derivative,
    rank,
    restrict_to_ray,
)
from supersmooth.fan import _clockwise_cmp
from supersmooth.linalg import _eliminate


def random_bipoly(rng: Random, max_degree: int = 6, terms: int = 8, bound: int = 9) -> BiPoly:
    out: dict[tuple[int, int], int] = {}
    for _ in range(terms):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        out[(i, j)] = out.get((i, j), 0) + rng.randint(-bound, bound)
    return BiPoly(out)


def random_direction(rng: Random, bound: int = 5) -> tuple[int, int]:
    while True:
        d = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if d != (0, 0):
            return d


def random_collinear_free_fan(rng: Random, k: int, bound: int = 7) -> FanPartition:
    rays: list[Ray] = []
    while len(rays) < k:
        candidate = Ray(*random_direction(rng, bound))
        if any(candidate.dx * r.dy - candidate.dy * r.dx == 0 for r in rays):
            continue
        rays.append(candidate)
    return build_fan(rays)


def random_slope_set(rng: Random, count: int, max_denominator: int = 4) -> list[Fraction]:
    slopes: set[Fraction] = set()
    while len(slopes) < count:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, max_denominator))
        if value != 0:
            slopes.add(value)
    return sorted(slopes)


def distinct_lines(rays) -> int:
    """Number of distinct lines through the origin carrying the given rays."""
    return len({(r.dx, r.dy) if (r.dx, r.dy) > (0, 0) else (-r.dx, -r.dy) for r in rays})


def random_fan(rng: Random, k: int, opposite_share: float = 0.3, bound: int = 5) -> FanPartition:
    """k distinct rays; each new ray is, with probability opposite_share, the
    opposite of an earlier one, so several rays may share a line."""
    rays: list[Ray] = []
    while len(rays) < k:
        if rays and rng.random() < opposite_share:
            earlier = rng.choice(rays)
            candidate = Ray(-earlier.dx, -earlier.dy)
        else:
            candidate = Ray(*random_direction(rng, bound))
        if candidate not in rays:
            rays.append(candidate)
    return build_fan(rays)


def partial_derivative_dimension(fan: FanPartition, degree: int, smoothness: int) -> int:
    """dim S^r_d by the direct route, independent of smoothing cofactors.

    Every partial derivative D^(a,b), a + b <= r, of the difference of the
    two pieces adjacent along a ray must restrict to zero on that ray: one
    equation per power of the ray parameter, in the k*C(d+2,2) piece
    coefficients.  The dimension is the coefficient count minus the rank.
    """
    monomials = [(i, s - i) for s in range(degree + 1) for i in range(s + 1)]
    per_piece = len(monomials)
    k = len(fan.rays)
    width = k * per_piece
    rows = []
    for right, ray in enumerate(fan.rays):
        left = (right - 1) % k
        for a in range(smoothness + 1):
            for b in range(smoothness + 1 - a):
                # D^(a,b) x^i y^j restricted to (t*dx, t*dy) is a multiple of t^(i+j-a-b)
                by_power: dict[int, list[int]] = {}
                for col, (i, j) in enumerate(monomials):
                    if i < a or j < b:
                        continue
                    coeff = perm(i, a) * perm(j, b) * ray.dx ** (i - a) * ray.dy ** (j - b)
                    row = by_power.setdefault(i + j - a - b, [0] * width)
                    row[left * per_piece + col] += coeff
                    row[right * per_piece + col] -= coeff
                rows.extend(row for row in by_power.values() if any(row))
    return width - rank(rows, cols=width)


def all_partials_order(diff: BiPoly, ray: Ray):
    """Smoothness order across a ray straight from the definition.

    The largest r such that every partial derivative of `diff` of total
    order <= r restricts to zero on the ray; quadratic in the degree.
    """
    if diff.is_zero:
        return INFINITE
    for order in range(diff.total_degree() + 1):
        for i in range(order + 1):
            if not restrict_to_ray(diff.partial(i, order - i), ray).is_zero:
                return order - 1
    # Some order-deg partial is a nonzero constant, so the loop always returns.
    raise AssertionError("unreachable: nonzero polynomial passed all orders")


def transverse_order(diff: BiPoly, ray: Ray):
    """Smoothness order across a ray by differentiating across its line.

    D_across = -dy*d/dx + dx*d/dy maps the line form l = dy*x - dx*y to the
    nonzero constant -(dx^2 + dy^2), so each derivative lowers the
    multiplicity of l by one; the order counts the derivatives taken before
    the restriction to the ray stops vanishing.
    """
    if diff.is_zero:
        return INFINITE
    dx, dy = ray
    order = NOT_CONTINUOUS
    while restrict_to_ray(diff, ray).is_zero:
        diff = directional_derivative(diff, (-dy, dx))
        order += 1
    return order


def line_divisibility_order(diff: BiPoly, slope):
    """Largest r with (y + slope*x)^(r+1) dividing diff, by a change of variables.

    Only non-vertical lines have a slope.
    """
    if diff.is_zero:
        return INFINITE
    # Substitute y -> u - slope*x; the multiplicity of (y + slope*x) is the
    # least u-exponent of the rewritten polynomial.
    a = Fraction(slope)
    shear = BiPoly({(1, 0): -a, (0, 1): 1})  # u - slope*x, with u in y's slot
    max_j = max(j for _, j in diff.terms)
    shear_powers = [BiPoly.constant(1)]
    for _ in range(max_j):
        shear_powers.append(shear_powers[-1] * shear)
    rewritten = BiPoly.zero()
    for (i, j), coeff in diff.terms.items():
        rewritten = rewritten + shear_powers[j].scale(coeff) * BiPoly({(i, 0): 1})
    multiplicity = min(j for _, j in rewritten.terms)
    return multiplicity - 1


def fraction_locate_sector(fan: FanPartition, x, y) -> int:
    """Sector of a nonzero point by comparing it, as a Fraction pair, with every ray.

    Uses the clockwise comparator that `build_fan` sorts by: the sector is
    the last ray whose clockwise angle from rays[0] does not exceed the point's.
    """
    point = (Fraction(x), Fraction(y))
    if point == (0, 0):
        raise OriginSectorError("the origin lies on every ray and has no sector")
    base = fan.rays[0]
    sector = 0
    for j in range(1, len(fan.rays)):
        if _clockwise_cmp(base, fan.rays[j], point) <= 0:
            sector = j
    return sector


def termwise_evaluate(p: BiPoly, x, y) -> Fraction:
    """Exact value of p at a rational point, summed term by term in Fractions."""
    vx, vy = Fraction(x), Fraction(y)
    total = Fraction(0)
    for (i, j), coeff in p.terms.items():
        total += coeff * vx**i * vy**j
    return total


def origin_partials(spline: PiecewisePoly, max_order: int) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """Per-piece values of every partial derivative of total order <= max_order at 0.

    Keyed by (x_order, y_order) in increasing total order; a multi-index
    "agrees" when all pieces give the same value.
    """
    table: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for order in range(max_order + 1):
        for i in range(order + 1):
            j = order - i
            fact = factorial(i) * factorial(j)
            table[(i, j)] = tuple(p.coefficient(i, j) * fact for p in spline.pieces)
    return table


def fraction_nullspace(rows, cols: int | None = None) -> list[list[int]]:
    """Null basis by back-substitution in Fractions over the library's echelon form.

    One vector per free column, cleared of denominators, divided by its gcd
    and made positive in its first nonzero entry.
    """
    cols = len(rows[0]) if cols is None else cols
    if cols == 0:
        return []
    if not rows:
        return [[int(i == k) for i in range(cols)] for k in range(cols)]
    echelon, col_perm, r = _eliminate(rows, cols)
    basis = []
    for free in range(r, cols):
        permuted = [Fraction(0)] * cols
        permuted[free] = Fraction(1)
        for p in range(r - 1, -1, -1):
            row = echelon[p]
            s = sum((row[q] * permuted[q] for q in range(p + 1, cols)), Fraction(0))
            permuted[p] = -s / row[p]
        vector = [Fraction(0)] * cols
        for pos, value in enumerate(permuted):
            vector[col_perm[pos]] = value
        denom = lcm(*(f.denominator for f in vector))
        ints = [int(f * denom) for f in vector]
        content = gcd(*ints)
        sign = -1 if next(v for v in ints if v) < 0 else 1
        basis.append([sign * v // content for v in ints])
    return basis


def vandermonde_coeffs(slopes, n: int) -> list[int]:
    """Counterexample coefficients as the null vector of sum_i c_i a_i^s = 0, s = 1..n.

    The slopes are used in the given order and must be distinct and nonzero.
    """
    values = [Fraction(a) for a in slopes]
    (coeffs,) = fraction_nullspace([[a**s for a in values] for s in range(1, n + 1)])
    return coeffs
