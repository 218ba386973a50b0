"""Shared randomized generators and reference routes for the test suite (all seeded by callers)."""

import math
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm
from random import Random

import sympy

from supersmooth import (
    INFINITE,
    NOT_CONTINUOUS,
    BiPoly,
    DomainError,
    EvaluationError,
    FanPartition,
    MissingDirectionError,
    OperatorPoly,
    OriginSectorError,
    PiecewisePoly,
    Ray,
    build_fan,
    construct,
    directional_derivative,
    linear_form_power,
    locate_sector,
    rank,
    poly,
    restrict_to_ray,
)
from supersmooth.fan import _half_turn_bucket
from supersmooth.linalg import _eliminate
from supersmooth.numcheck import RAY_EXTENT, RayLemmaReport, _unit
from supersmooth.rational import primitive
from supersmooth.spline import _line_multiplicity


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


def schumaker_dimension(k: int, m: int, degree: int, smoothness: int) -> int:
    """Schumaker's (1979) dim S^r_d on a vertex star of k rays on m distinct lines."""
    d, r = degree, smoothness
    if r >= d:
        return comb(d + 2, 2)
    return comb(r + 2, 2) + k * comb(d - r + 1, 2) + sum(max(r + j + 1 - j * m, 0) for j in range(1, d - r + 1))


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


def fraction_order_of_difference(diff: BiPoly, ray):
    """`smoothness_order_of_difference` over Fractions: the difference is
    cleared by `primitive` and each homogeneous component divided by the
    line form (the library's route before piece frames)."""
    if diff.is_zero:
        return INFINITE
    dx, dy = Ray(*ray)
    components: dict[int, list[int]] = {}
    for (i, j), c in zip(diff.terms, primitive(diff.terms.values())):
        components.setdefault(i + j, [0] * (i + j + 1))[i] = c
    return min(_line_multiplicity(coeffs, dx, dy, INFINITE) for coeffs in components.values()) - 1


def fraction_ray_orders(spline: PiecewisePoly) -> list:
    """Per-ray orders from Fraction differences of adjacent pieces."""
    k = len(spline.fan.rays)
    return [
        fraction_order_of_difference(spline.pieces[(j - 1) % k] - spline.pieces[j], spline.fan.rays[j])
        for j in range(k)
    ]


def fraction_origin_order(spline: PiecewisePoly):
    """Origin order from the lowest degree of the Fraction jumps p_j - p_0."""
    jumps = [piece - spline.pieces[0] for piece in spline.pieces[1:]]
    return min((min(i + j for i, j in jump.terms) for jump in jumps if not jump.is_zero), default=INFINITE) - 1


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


def clockwise_cmp(base, u, v) -> int:
    """Order by clockwise angle from base in [0, full turn); 0 means equal angle.

    Compares by half-turn bucket, then by the sign of the cross product.
    """
    bu, bv = _half_turn_bucket(*base, *u), _half_turn_bucket(*base, *v)
    if bu != bv:
        return -1 if bu < bv else 1
    if bu in (0, 2):
        return 0
    (ux, uy), (vx, vy) = u, v
    c = ux * vy - uy * vx
    if c == 0:
        return 0
    return -1 if c < 0 else 1


def fraction_locate_sector(fan: FanPartition, x, y) -> int:
    """Sector of a nonzero point by comparing it, as a Fraction pair, with every ray.

    Uses `clockwise_cmp`: the sector is the last ray whose clockwise angle
    from rays[0] does not exceed the point's.
    """
    point = (Fraction(x), Fraction(y))
    if point == (0, 0):
        raise OriginSectorError("the origin lies on every ray and has no sector")
    base = fan.rays[0]
    sector = 0
    for j in range(1, len(fan.rays)):
        if clockwise_cmp(base, fan.rays[j], point) <= 0:
            sector = j
    return sector


def termwise_evaluate(p: BiPoly, x, y) -> Fraction:
    """Exact value of p at a rational point, summed term by term in Fractions."""
    vx, vy = Fraction(x), Fraction(y)
    total = Fraction(0)
    for (i, j), coeff in p.terms.items():
        total += coeff * vx**i * vy**j
    return total


def pointwise_sample_grid(spline: PiecewisePoly, grid_n: int, radius: float) -> list[tuple[float, float, float, int]]:
    """`sample_grid` point by point: locate each point's sector and evaluate its piece as a Fraction."""
    if grid_n < 2:
        raise DomainError("grid_n must be at least 2")
    if not (0 < radius and math.isfinite(2.0 * radius * (grid_n - 1))):
        raise DomainError("radius must be positive and small enough for finite grid coordinates")
    coords = [-radius + 2.0 * radius * i / (grid_n - 1) for i in range(grid_n)]
    if any(a >= b for a, b in zip(coords, coords[1:])):
        raise DomainError("radius must be large enough for distinct grid coordinates")
    exact = [Fraction(c) for c in coords]
    rows = []
    for y, fy in zip(reversed(coords), reversed(exact)):
        for x, fx in zip(coords, exact):
            if x == 0.0 and y == 0.0:
                sector = -1
                value = spline.pieces[0].evaluate(0, 0)
            else:
                sector = locate_sector(spline.fan, fx, fy)
                value = spline.pieces[sector].evaluate(fx, fy)
            try:
                value = float(value)
            except OverflowError:
                raise DomainError(
                    f"the value at ({x!r}, {y!r}) is too large for a float; use a smaller radius"
                ) from None
            rows.append((x, y, value, sector))
    return rows


def per_line_grid_csv(rows) -> str:
    """`render_grid_csv` formatting every field of every row afresh."""
    lines = ["x,y,value,sector"]
    for x, y, value, sector in rows:
        lines.append(f"{x:.17g},{y:.17g},{value:.17g},{sector}")
    return "\n".join(lines) + "\n"


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
    echelon, pivots = _eliminate(rows, cols)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vector = [Fraction(int(c == free)) for c in range(cols)]
        for row, p in reversed(list(zip(echelon, pivots))):
            s = sum((row[q] * vector[q] for q in range(p + 1, cols)), Fraction(0))
            vector[p] = -s / row[p]
        denom = lcm(*(f.denominator for f in vector))
        ints = [int(f * denom) for f in vector]
        content = gcd(*ints)
        sign = -1 if next(v for v in ints if v) < 0 else 1
        basis.append([sign * v // content for v in ints])
    return basis


def sympy_nullspace(rows, cols: int | None = None) -> list[list[int]]:
    """sympy's reduced-echelon null basis, each vector scaled by `primitive`."""
    cols = len(rows[0]) if cols is None else cols
    basis = sympy.Matrix(len(rows), cols, [sympy.Rational(v.numerator, v.denominator) for row in rows for v in row])
    return [primitive([Fraction(int(v.p), int(v.q)) for v in vector]) for vector in basis.nullspace()]


def vandermonde_coeffs(slopes, n: int) -> list[int]:
    """Counterexample coefficients as the null vector of sum_i c_i a_i^s = 0, s = 1..n.

    The slopes are used in the given order and must be distinct and nonzero.
    """
    values = [Fraction(a) for a in slopes]
    (coeffs,) = fraction_nullspace([[a**s for a in values] for s in range(1, n + 1)])
    return coeffs


def fraction_add(p: BiPoly, q: BiPoly) -> BiPoly:
    """p + q term by term in Fractions."""
    out = dict(p.terms)
    for mono, coeff in q.terms.items():
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return BiPoly(out)


def fraction_sub(p: BiPoly, q: BiPoly) -> BiPoly:
    """p - q as p plus the negated q, term by term in Fractions."""
    return fraction_add(p, BiPoly({mono: -coeff for mono, coeff in q.terms.items()}))


def fraction_scale(p: BiPoly, factor) -> BiPoly:
    """factor * p, one Fraction product per term."""
    return BiPoly({mono: coeff * factor for mono, coeff in p.terms.items()})


def fraction_partial(p: BiPoly, x_order: int, y_order: int) -> BiPoly:
    """d^(x_order + y_order) p / dx^x_order dy^y_order, one factor of the falling factorials at a time."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), coeff in p.terms.items():
        if i < x_order or j < y_order:
            continue
        c = coeff
        for step in range(x_order):
            c *= i - step
        for step in range(y_order):
            c *= j - step
        out[(i - x_order, j - y_order)] = out.get((i - x_order, j - y_order), Fraction(0)) + c
    return BiPoly(out)


def cumulative_pieces(coeffs, slopes, n: int) -> list[BiPoly]:
    """The counterexample's pieces 0, c_1*l_1^n, c_1*l_1^n + c_2*l_2^n, ..., summed as BiPolys."""
    pieces = [BiPoly.zero()]
    for coeff, slope in zip(coeffs, slopes):
        pieces.append(pieces[-1] + linear_form_power(slope, n).scale(coeff))
    return pieces


def refuse_polynomial_products(monkeypatch) -> None:
    """Make every BiPoly product, power, scaling, partial and line-form power raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("this route works in integers")

    for name in ("__mul__", "__rmul__", "__pow__", "scale", "partial"):
        monkeypatch.setattr(BiPoly, name, refuse)
    monkeypatch.setattr(poly, "linear_form_power", refuse)
    monkeypatch.setattr(construct, "linear_form_power", refuse)


def apply_by_directions(op: OperatorPoly, directions, p: BiPoly) -> BiPoly:
    """Apply an operator monomial by monomial, one directional derivative per symbol factor.

    `directions[k]` is the ray for symbol k; a missing or None entry for a
    symbol the operator actually uses is an error.
    """
    result = BiPoly.zero()
    for exponents, coeff in op.terms.items():
        term = p
        for index, power in enumerate(exponents):
            if power == 0:
                continue
            if index >= len(directions) or directions[index] is None:
                raise MissingDirectionError(f"no direction bound to symbol {index}")
            for _ in range(power):
                term = directional_derivative(term, directions[index])
        result = result + term.scale(coeff)
    return result


def checked_eval(f, x: float, y: float) -> float:
    """f(x, y), or the `EvaluationError` the numeric checks raise for a non-finite value."""
    value = f(x, y)
    if not math.isfinite(value):
        raise EvaluationError(f"function returned non-finite value {value!r} at ({x}, {y})")
    return value


def richardson(estimates: list[float], error_powers) -> tuple[float, float]:
    """Richardson-extrapolate estimates taken at successively halved steps.

    Stage s kills the h^p term, p the s-th entry of `error_powers`, building a
    new row each stage.  Returns the extrapolated value and the last
    extrapolation delta (infinite when a single estimate leaves nothing to
    compare).
    """
    levels = len(estimates)
    delta = math.inf
    for stage, power in zip(range(1, levels), error_powers):
        factor = 2.0**power
        next_row = [
            (factor * estimates[i] - estimates[i - 1]) / (factor - 1.0)
            for i in range(stage, levels)
        ]
        delta = abs(next_row[-1] - estimates[-1])
        estimates[stage:] = next_row
    return estimates[-1], delta


def one_sided_stencil(f, point, direction, h: float) -> float:
    """Second-order forward stencil (-3f(P) + 4f(P+h) - f(P+2h)) / (2h), three fresh evaluations."""
    px, py = point
    ux, uy = direction
    f0 = f(px, py)
    f1 = f(px + h * ux, py + h * uy)
    f2 = f(px + 2 * h * ux, py + 2 * h * uy)
    return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)


def stencil_derivative(f, point, direction, cfg) -> tuple[float, float]:
    """One-sided directional derivative with one full stencil per Richardson level (3L evaluations)."""
    unit = _unit(direction)
    levels = cfg.richardson_levels
    estimates = [one_sided_stencil(f, point, unit, cfg.base_step / 2**i) for i in range(levels)]
    return richardson(estimates, range(2, levels + 1))


def fresh_one_sided(f, point, direction, cfg) -> tuple[float, float, float]:
    """f(P), the one-sided derivative and its error estimate, normalising the
    direction and building the stencil offsets afresh on every call."""
    px, py = point
    ux, uy = _unit(direction)
    levels = cfg.richardson_levels
    offsets = [2 * cfg.base_step] + [cfg.base_step / 2**i for i in range(levels)]
    f0 = checked_eval(f, px, py)
    values = [checked_eval(f, px + t * ux, py + t * uy) for t in offsets]
    estimates = [
        (-3.0 * f0 + 4.0 * near - far) / (2.0 * h)
        for far, near, h in zip(values, values[1:], offsets[1:])
    ]
    return (f0, *richardson(estimates, range(2, levels + 1)))


def fresh_ray_lemma(f, g, ray, cfg) -> RayLemmaReport:
    """`verify_ray_lemma` with `fresh_one_sided` at every sample point."""
    unit = _unit(ray)
    value_gap = deriv_gap = 0.0
    for k in range(cfg.samples_per_ray):
        t = RAY_EXTENT * k / cfg.samples_per_ray
        point = (t * unit[0], t * unit[1])
        f0, df, _ = fresh_one_sided(f, point, unit, cfg)
        g0, dg, _ = fresh_one_sided(g, point, unit, cfg)
        value_gap = max(value_gap, abs(f0 - g0))
        deriv_gap = max(deriv_gap, abs(df - dg))
    passed = value_gap <= cfg.tolerance and deriv_gap <= cfg.tolerance
    return RayLemmaReport(max_value_gap=value_gap, max_dirderiv_gap=deriv_gap, passed=passed)


def central_partial(f, point, axis: int, cfg) -> float:
    """Central-difference partial with Richardson (error powers h^2, h^4, ...), each
    step and span computed where it is used."""
    px, py = point
    levels = cfg.richardson_levels
    vals = []
    for i in range(levels):
        h = cfg.base_step / 2**i
        if axis == 0:
            vals.append((checked_eval(f, px + h, py) - checked_eval(f, px - h, py)) / (2.0 * h))
        else:
            vals.append((checked_eval(f, px, py + h) - checked_eval(f, px, py - h)) / (2.0 * h))
    return richardson(vals, range(2, 2 * levels, 2))[0]


def fresh_gradient(f, point, cfg) -> tuple[float, float]:
    """`estimate_gradient` by `central_partial` along each axis."""
    return (central_partial(f, point, 0, cfg), central_partial(f, point, 1, cfg))
