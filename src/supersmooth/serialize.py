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
from fractions import Fraction
from typing import Any, Sequence

from .errors import DomainError, SchemaError
from .fan import Ray, build_fan, locate_sector
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


def sample_grid(spline: PiecewisePoly, grid_n: int, radius: float) -> list[tuple[float, float, float, int]]:
    """Evaluate the spline on a uniform grid over [-radius, radius]^2.

    Rows are emitted row-major with y descending (top row first) and x
    ascending.  The exact origin has no sector; it reports sector -1 and the
    value of piece 0.
    """
    if grid_n < 2:
        raise DomainError("grid_n must be at least 2")
    # 2*radius*(grid_n-1) is the largest intermediate of the coordinates below.
    if not (0 < radius and math.isfinite(2.0 * radius * (grid_n - 1))):
        raise DomainError("radius must be positive and small enough for finite grid coordinates")
    coords = [-radius + 2.0 * radius * i / (grid_n - 1) for i in range(grid_n)]
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


def render_grid_csv(rows: Sequence[tuple[float, float, float, int]]) -> str:
    """Deterministic CSV text: fixed header, 17 significant digits."""
    lines = [CSV_HEADER]
    for x, y, value, sector in rows:
        lines.append(f"{x:.17g},{y:.17g},{value:.17g},{sector}")
    return "\n".join(lines) + "\n"
