"""Strict JSON codec for fan splines and CSV grid sampling.

Document schema (any unknown field anywhere is an error):

    {
      "rays":  [{"dx": "1", "dy": "0"}, ...],          # clockwise
      "pieces": [{"monomials": {"0,2": "1", ...}}, ...],
      "construction": {"n": 2, "slopes": [...], "coeffs": [...]}   # optional
    }

A construction block has exactly these three fields: an integer n >= 1 and
n+1 rational strings in each list.

Rationals use the canonical "p" / "p/q" text form; monomial keys are
"i,j" with nonnegative exponents in ASCII digits and total degree i+j at
most MAX_DEGREE, which bounds the cost of checking a document (exact
smoothness orders take time polynomial in the degree, however few the
terms).  decode(encode(F)) reproduces F exactly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Any, Sequence

from .errors import DomainError, SchemaError
from .fan import FanPartition, Ray, build_fan, locate_sector
from .poly import BiPoly
from .rational import format_rational, parse_rational
from .spline import PiecewisePoly

MAX_DEGREE = 1000


def encode_spline(spline: PiecewisePoly, construction: dict | None = None) -> str:
    """Serialize a spline (plus optional construction metadata) to JSON text."""
    doc: dict[str, Any] = {
        "rays": [
            {"dx": format_rational(r.dx), "dy": format_rational(r.dy)}
            for r in spline.fan.rays
        ],
        "pieces": [
            {
                "monomials": {
                    f"{i},{j}": format_rational(coeff)
                    for (i, j), coeff in piece.sorted_terms()
                }
            }
            for piece in spline.pieces
        ],
    }
    if construction is not None:
        doc["construction"] = construction
    return json.dumps(doc, indent=2) + "\n"


def encode_counterexample(spec) -> str:
    """Spline JSON for a built counterexample, with its construction block."""
    return encode_spline(
        spec.spline,
        construction={
            "n": spec.n,
            "slopes": [format_rational(a) for a in spec.slopes],
            "coeffs": [format_rational(c) for c in spec.coeffs],
        },
    )


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise SchemaError(f"{where}: missing field(s) {sorted(missing)}")


def _parse_rational_at(value, where: str) -> Fraction:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: rationals must be strings like \"-3/4\"")
    try:
        return parse_rational(value)
    except DomainError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _parse_monomial_key(key: str, where: str) -> tuple[int, int]:
    parts = key.split(",")
    # ASCII digits only: int() alone also reads signs, spaces, "_" and non-ASCII digits.
    if len(parts) != 2 or not all(part.isascii() and part.isdigit() for part in parts):
        raise SchemaError(f"{where}: monomial key {key!r} is not \"i,j\"")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        # Python refuses integer literals above sys.get_int_max_str_digits() digits.
        raise SchemaError(f"{where}: monomial key {key!r} has total degree above {MAX_DEGREE}") from None
    if i + j > MAX_DEGREE:
        raise SchemaError(f"{where}: monomial key {key!r} has total degree above {MAX_DEGREE}")
    return i, j


def decode_document(text: str) -> tuple[PiecewisePoly, dict | None]:
    """Parse spline JSON, returning the spline and any construction block."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    except ValueError as exc:
        # JSONDecodeError, or an integer literal above Python's digit limit
        raise SchemaError(f"invalid JSON: {exc}") from None
    _require_keys(doc, {"rays", "pieces"}, {"construction"}, "document")

    rays_field = doc["rays"]
    pieces_field = doc["pieces"]
    if not isinstance(rays_field, list) or not isinstance(pieces_field, list):
        raise SchemaError("rays and pieces must be arrays")
    if len(rays_field) != len(pieces_field):
        raise SchemaError(
            f"{len(rays_field)} rays but {len(pieces_field)} pieces; counts must match"
        )
    if len(rays_field) < 2:
        raise SchemaError("a spline document needs at least 2 rays")

    rays = []
    for idx, entry in enumerate(rays_field):
        where = f"rays[{idx}]"
        _require_keys(entry, {"dx", "dy"}, set(), where)
        dx = _parse_rational_at(entry["dx"], f"{where}.dx")
        dy = _parse_rational_at(entry["dy"], f"{where}.dy")
        if dx == 0 and dy == 0:
            raise SchemaError(f"{where}: zero direction")
        rays.append(Ray(dx, dy))

    pieces = []
    for idx, entry in enumerate(pieces_field):
        where = f"pieces[{idx}]"
        _require_keys(entry, {"monomials"}, set(), where)
        monomials = entry["monomials"]
        if not isinstance(monomials, dict):
            raise SchemaError(f"{where}.monomials: expected an object")
        terms = {}
        for key, value in monomials.items():
            mono = _parse_monomial_key(key, f"{where}.monomials")
            if mono in terms:
                raise SchemaError(f"{where}.monomials: duplicate monomial {key!r}")
            terms[mono] = _parse_rational_at(value, f"{where}.monomials[{key!r}]")
        pieces.append(BiPoly(terms))

    fan = build_fan(rays)
    if fan.rays != tuple(rays):
        raise SchemaError("rays are not in clockwise order starting from the first")

    construction = doc.get("construction")
    if construction is not None:
        _check_construction(construction)
    return PiecewisePoly(fan=fan, pieces=tuple(pieces)), construction


def _check_construction(block) -> None:
    """A construction block holds an order n >= 1 and n+1 slopes and coefficients."""
    _require_keys(block, {"n", "slopes", "coeffs"}, set(), "construction")
    n = block["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SchemaError("construction.n: expected an integer >= 1")
    for field in ("slopes", "coeffs"):
        values = block[field]
        if not isinstance(values, list) or len(values) != n + 1:
            raise SchemaError(f"construction.{field}: expected a list of n+1 rationals")
        for idx, value in enumerate(values):
            _parse_rational_at(value, f"construction.{field}[{idx}]")


def decode_spline(text: str) -> PiecewisePoly:
    """Parse spline JSON, dropping any construction metadata."""
    spline, _ = decode_document(text)
    return spline


# -- grid sampling ------------------------------------------------------

CSV_HEADER = "x,y,value,sector"


def _integer_terms(piece: BiPoly, frame: int) -> tuple[list[list[tuple[int, int]]], int]:
    """The piece at (X/frame, Y/frame) as integers over one denominator.

    With D the lcm of the piece's denominators and T its total degree,
    p(X/frame, Y/frame) = sum c_ij D frame^(T-i-j) X^i Y^j / (D frame^T).
    Returns those integer coefficients as [(j, c)] per x-exponent i, from
    the top down, and the denominator D frame^T.
    """
    terms, common = piece.integer_frame()
    if not terms:
        return [[]], 1
    top = max(i + j for i, j in terms)
    columns: list[list[tuple[int, int]]] = [[] for _ in range(max(i for i, _ in terms) + 1)]
    for (i, j), c in terms.items():
        columns[i].append((j, c * frame ** (top - i - j)))
    return columns[::-1], common * frame**top


def _half_crossings(fan: FanPartition, sign: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """How rows y with the given sign meet the rays, left to right.

    Returns the sector before the first crossing and, per ray with dy of that
    sign in the order met, (dx, dy, sector on the ray, sector past it).  The
    fan is clockwise, so a row above the origin meets its rays clockwise
    (ascending dx/dy) and a row below meets them counterclockwise
    (descending dx/dy); past rays[j] lies sector j above and j-1 below.
    A half that no ray enters lies in one sector.
    """
    rays, k = fan.rays, len(fan.rays)
    met = sorted((j for j, r in enumerate(rays) if r.dy * sign > 0),
                 key=lambda j: Fraction(rays[j].dx, rays[j].dy), reverse=sign < 0)
    if not met:
        return locate_sector(fan, 0, sign), []
    crossings = [(rays[j].dx, rays[j].dy, j, j if sign > 0 else (j - 1) % k) for j in met]
    return (met[0] - 1) % k if sign > 0 else met[0], crossings


def _row_runs(xs: list[int], row: int, before: int, crossings):
    """(start, stop, sector) runs of the ascending integers xs on the row Y = row.

    A ray (dx, dy) crosses the row at X = row*dx/dy; `divmod` gives the first
    column at or past it and whether the crossing is exact.  A grid point
    exactly on a crossing is a run of its own.
    """
    start, sector = 0, before
    for dx, dy, on, past in crossings:
        quotient, remainder = divmod(-row * dx, dy)  # the cut is ceil(row*dx/dy) = -quotient
        stop = bisect_left(xs, -quotient, start)
        if start < stop:
            yield start, stop, sector
        if not remainder and stop < len(xs) and xs[stop] == -quotient:
            yield stop, stop + 1, on
            stop += 1
        start, sector = stop, past
    if start < len(xs):
        yield start, len(xs), sector


def sample_grid(spline: PiecewisePoly, grid_n: int, radius: float) -> list[tuple[float, float, float, int]]:
    """Evaluate the spline on a uniform grid over [-radius, radius]^2.

    Rows are emitted row-major with y descending (top row first) and x
    ascending.  The exact origin has no sector; it reports sector -1 and the
    value of piece 0.  A radius so small that the grid coordinates are not
    distinct floats is a domain error.

    Every coordinate is a float, so a dyadic rational; over the largest of
    their denominators, B, each point is (X/B, Y/B) with integers X and Y.
    Each row is scanned once.  A ray crosses a row Y != 0 at most once, at
    X = Y*dx/dy, and the fan's clockwise order fixes the sector between
    crossings, so `locate_sector` runs only for a half-plane that no ray
    enters and for the two sides of the row y = 0: at most 4 calls a grid.
    Each piece is cleared to integers over one fixed denominator once a
    grid and restricted to a row once per sector met; a point then costs
    one integer Horner pass of the piece's x-degree (grid_n^2 passes in
    all) and one correctly rounded int/int division.  The rows are
    identical to those of locating and evaluating each point on its own.
    """
    if grid_n < 2:
        raise DomainError("grid_n must be at least 2")
    # 2*radius*(grid_n-1) is the largest intermediate of the coordinates below.
    if not (0 < radius and math.isfinite(2.0 * radius * (grid_n - 1))):
        raise DomainError("radius must be positive and small enough for finite grid coordinates")
    coords = [-radius + 2.0 * radius * i / (grid_n - 1) for i in range(grid_n)]
    if any(a >= b for a, b in zip(coords, coords[1:])):
        raise DomainError("radius must be large enough for distinct grid coordinates")
    ratios = [c.as_integer_ratio() for c in coords]
    frame = max(b for _, b in ratios)
    xs = [a * (frame // b) for a, b in ratios]
    fan = spline.fan
    upper, lower = _half_crossings(fan, 1), _half_crossings(fan, -1)
    pieces = [_integer_terms(piece, frame) for piece in spline.pieces]
    top_j = max((j for piece in spline.pieces for _, j in piece.terms), default=0)
    rows = []
    for y, row in zip(reversed(coords), reversed(xs)):
        powers = [row**j for j in range(top_j + 1)]
        if row:
            before, crossings = upper if row > 0 else lower
        else:
            # The row through the origin: one crossing, at the origin, whose sector is -1.
            before, crossings = locate_sector(fan, -1, 0), [(0, 1, -1, locate_sector(fan, 1, 0))]
        restricted: dict[int, tuple[list[int], int]] = {}
        for start, stop, sector in _row_runs(xs, row, before, crossings):
            if sector not in restricted:
                # The piece on this row, in X; the origin's sector -1 takes piece 0.
                columns, den = pieces[max(sector, 0)]
                restricted[sector] = [sum(c * powers[j] for j, c in column) for column in columns], den
            coeffs, den = restricted[sector]
            top, rest = coeffs[0], coeffs[1:]
            for k in range(start, stop):
                x = xs[k]
                num = top
                for coeff in rest:
                    num = num * x + coeff
                try:
                    value = num / den
                except OverflowError:
                    raise DomainError(
                        f"the value at ({coords[k]!r}, {y!r}) is too large for a float; use a smaller radius"
                    ) from None
                rows.append((coords[k], y, value, sector))
    return rows


def render_grid_csv(rows: Sequence[tuple[float, float, float, int]]) -> str:
    """Deterministic CSV text: fixed header, 17 significant digits.

    A grid repeats its coordinates, so each distinct nonzero one is
    formatted once; zeros are never stored and are formatted afresh, since
    0.0 and -0.0 are one dict key but print differently.
    """
    text: dict[float, str] = {}
    lines = [CSV_HEADER]
    for x, y, value, sector in rows:
        tx = text.get(x)
        if tx is None:
            tx = f"{x:.17g}"
            if x:
                text[x] = tx
        ty = text.get(y)
        if ty is None:
            ty = f"{y:.17g}"
            if y:
                text[y] = ty
        lines.append(f"{tx},{ty},{value:.17g},{sector}")
    return "\n".join(lines) + "\n"
