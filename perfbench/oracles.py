"""Reference answers for the benchmark, computed without the package.

Everything here works on plain dict polynomials {(i, j): Fraction} and
integer direction pairs, so no check calls the code path it checks:

* Schumaker's closed-form dimension of S^r_d over a fan of k rays lying on
  m distinct lines (Schumaker 1979; Lai & Schumaker 2007, ch. 9), and the
  rank of a set of coefficient vectors;
* divisibility of a difference of pieces by a power of a ray's line form,
  after a change of variables that makes the line form a coordinate;
* the clockwise sector of a point, by exact pseudo-angles;
* the cumulative counterexample built from the closed-form Vandermonde
  kernel c_i = 1 / (a_i * prod_{j != i} (a_i - a_j));
* n-fold directional derivatives by direct term-wise differentiation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

Poly = dict  # {(i, j): Fraction}, zero coefficients never stored


# -- spline-space dimension ----------------------------------------------

def schumaker_dimension(k: int, m: int, degree: int, smoothness: int) -> int:
    """dim S^r_d on the star of one vertex with k edges on m distinct lines."""
    d, r = degree, smoothness
    if r >= d:
        return comb(d + 2, 2)
    extra = sum(max(r + j + 1 - j * m, 0) for j in range(1, d - r + 1))
    return comb(r + 2, 2) + k * comb(d - r + 1, 2) + extra


def distinct_lines(rays) -> int:
    """Number of distinct lines through the origin carrying the given rays."""
    lines = set()
    for dx, dy in rays:
        g = gcd(dx, dy)
        dx, dy = dx // g, dy // g
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        lines.add((dx, dy))
    return len(lines)


def rank(rows) -> int:
    """Rank of a list of equal-length rational rows, by Gauss-Jordan elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    found = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(found, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found]
        for i in range(found + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / top[col]
                rows[i] = [v - factor * t for v, t in zip(rows[i], top)]
        found += 1
    return found


# -- dict polynomials ----------------------------------------------------

def poly_add(p: Poly, q: Poly, scale=1) -> Poly:
    out = dict(p)
    for mono, c in q.items():
        v = out.get(mono, 0) + scale * c
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            mono = (i1 + i2, j1 + j2)
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_eval(p: Poly, x: Fraction, y: Fraction) -> Fraction:
    total = Fraction(0)
    for (i, j), c in p.items():
        total += c * x**i * y**j
    return total


def linear_power(a: Fraction, n: int) -> Poly:
    """(y + a*x)^n."""
    return {(t, n - t): comb(n, t) * Fraction(a) ** t for t in range(n + 1) if a or t == 0}


def directional_power(p: Poly, direction, n: int) -> Poly:
    """(dx * d/dx + dy * d/dy)^n p, term by term."""
    dx, dy = direction
    for _ in range(n):
        out: dict = {}
        for (i, j), c in p.items():
            if i:
                out[(i - 1, j)] = out.get((i - 1, j), 0) + c * i * dx
            if j:
                out[(i, j - 1)] = out.get((i, j - 1), 0) + c * j * dy
        p = {m: c for m, c in out.items() if c}
    return p


def line_multiplicity(p: Poly, direction) -> int | float:
    """Largest e with (dy*x - dx*y)^e dividing p; infinity for p == 0.

    Substituting x = dx*u - dy*w, y = dy*u + dx*w turns the line form into
    -(dx^2 + dy^2) * w, so e is the least w-exponent of the result.
    """
    if not p:
        return float("inf")
    dx, dy = direction
    x_sub = {(1, 0): Fraction(dx), (0, 1): Fraction(-dy)}
    y_sub = {(1, 0): Fraction(dy), (0, 1): Fraction(dx)}
    top = max(max(i, j) for i, j in p)
    x_pows, y_pows = [{(0, 0): Fraction(1)}], [{(0, 0): Fraction(1)}]
    for _ in range(top):
        x_pows.append(poly_mul(x_pows[-1], x_sub))
        y_pows.append(poly_mul(y_pows[-1], y_sub))
    result: dict = {}
    for (i, j), c in p.items():
        result = poly_add(result, poly_mul(x_pows[i], y_pows[j]), c)
    return min(w for _, w in result)


def global_order(rays, pieces) -> int | float:
    """Min over rays of the smoothness order across it (multiplicity - 1)."""
    k = len(rays)
    return min(
        line_multiplicity(poly_add(pieces[(j - 1) % k], pieces[j], -1), rays[j]) - 1
        for j in range(k)
    )


# -- sectors -------------------------------------------------------------

def _ccw_key(x: Fraction, y: Fraction) -> tuple[int, Fraction]:
    """Exact key increasing with the counter-clockwise angle in [0, 2*pi)."""
    norm = abs(x) + abs(y)
    if y > 0 or (y == 0 and x > 0):
        return (0, -x / norm)
    return (1, x / norm)


class Sectors:
    """Exact clockwise sector test for one fan, as the package defines sectors:
    sector j runs clockwise from rays[j] (inclusive) to rays[j+1]."""

    def __init__(self, rays):
        self.base = _ccw_key(Fraction(rays[0][0]), Fraction(rays[0][1]))
        self.positions = [self._clockwise(_ccw_key(Fraction(dx), Fraction(dy))) for dx, dy in rays]

    def _clockwise(self, key):
        # Clockwise from the base: first the angles at or below the base,
        # descending, then the ones above it, descending.
        return (0 if key <= self.base else 1, -key[0], -key[1])

    def candidates(self, x: Fraction, y: Fraction) -> set[int]:
        """Sectors a nonzero point may be assigned to: its own, plus the
        clockwise-previous one when it lies exactly on a ray."""
        point = self._clockwise(_ccw_key(x, y))
        sector = 0
        for j, pos in enumerate(self.positions):
            if pos <= point:
                sector = j
        if self.positions[sector] == point:
            return {sector, (sector - 1) % len(self.positions)}
        return {sector}


# -- the sharp constructions ---------------------------------------------

def lower_ray(a: Fraction) -> tuple[int, int]:
    """Primitive direction of the line y = -a*x pointing into y < 0."""
    dx, dy = (1, -a) if a > 0 else (-1, a)
    scale = Fraction(dy).denominator
    ix, iy = int(dx * scale), int(dy * scale)
    g = gcd(ix, iy)
    return ix // g, iy // g


def counterexample(slopes, n: int) -> tuple[list[tuple[int, int]], list[Poly]]:
    """Rays and pieces of the cumulative C^(n-1) counterexample.

    Slopes are ordered as the clockwise order of their lower rays; the
    kernel vector of sum_i c_i a_i^s = 0 (s = 1..n) is taken in closed form.
    """
    values = sorted((Fraction(a) for a in slopes), key=lambda a: (a < 0, a))
    coeffs = []
    for i, a in enumerate(values):
        denom = a
        for j, b in enumerate(values):
            if j != i:
                denom *= a - b
        coeffs.append(1 / denom)
    rays = [(1, 0)] + [lower_ray(a) for a in values]
    pieces: list[Poly] = [{}]
    for c, a in zip(coeffs, values):
        pieces.append(poly_add(pieces[-1], linear_power(a, n), c))
    return rays, pieces


def halfplane(n: int, extra_slopes) -> tuple[list[tuple[int, int]], list[Poly]]:
    """y^(n+1) above the x-axis, 0 below, with upper rays (s, 1) mixed in."""
    rays = [(1, 0), (-1, 0)]
    for s in sorted(Fraction(v) for v in extra_slopes):
        rays.append((s.numerator, s.denominator))
    upper = {(0, n + 1): Fraction(1)}
    return rays, [{}] + [upper] * (len(rays) - 1)


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def spline_document(rays, pieces) -> dict:
    """The package's documented spline JSON schema, written independently."""
    return {
        "rays": [{"dx": str(dx), "dy": str(dy)} for dx, dy in rays],
        "pieces": [
            {"monomials": {f"{i},{j}": format_fraction(c) for (i, j), c in sorted(p.items())}}
            for p in pieces
        ],
    }


def report_lines(k: int, per_ray, global_: int, origin: int, applicable: bool, verdict: str) -> str:
    """The `check` report text for known orders."""
    lines = [f"ray {j}: order {per_ray[j]}" for j in range(k)]
    lines += [
        f"global: {global_}",
        f"origin: {origin}",
        f"theorem applicable: {'yes' if applicable else 'no'}",
        f"supersmoothness: {verdict}",
    ]
    return "\n".join(lines) + "\n"
