"""Strict JSON codec for fan splines and CSV grid sampling.

Document schema (any unknown field anywhere is an error):

    {
      "rays":  [{"dx": "1", "dy": "0"}, ...],          # clockwise
      "pieces": [{"monomials": {"0,2": "1", ...}}, ...],
      "construction": {"n": 2, "slopes": [...], "coeffs": [...]}   # optional
    }

A construction block, when present, is an object (not null) with exactly
these three fields: an integer n >= 1 and n+1 rational strings in each list.

Rationals use the canonical "p" / "p/q" text form; monomial keys are
"i,j" with nonnegative exponents in ASCII digits and total degree i+j at
most MAX_DEGREE, which bounds the cost of checking a document (exact
smoothness orders take time polynomial in the degree, however few the
terms).  decode(encode(F)) reproduces F exactly.

A key repeated in any JSON object is an error.  Decoding reads each
coefficient as the integers (p, q) of its literal, unreduced, and builds
each piece from one integer frame over the lcm of its q
(`BiPoly._from_frame`), so "2/4" and "1/2" decode alike and no Fraction is
made.  Encoding writes the text of json.dumps(document, indent=2) directly.
"""

from __future__ import annotations

import json
import math
import re
import sys
from bisect import bisect_left
from fractions import Fraction
from numbers import Real
from typing import Sequence

from .errors import DomainError, SchemaError
from .fan import Ray, build_fan, locate_sector, row_crossings
from .poly import BiPoly, check_exponents
from .rational import _format_ratio, _parse_ratio, format_rational, parse_rational
from .spline import PiecewisePoly

MAX_DEGREE = 1000

# ASCII digits only: int() alone also reads signs, spaces, "_" and non-ASCII digits.
_MONOMIAL_KEY = re.compile(r"([0-9]+),([0-9]+)")


def encode_spline(spline: PiecewisePoly, construction: dict | None = None) -> str:
    """Serialize a spline (plus optional construction metadata) to JSON text.

    The text is that of json.dumps(document, indent=2) plus a newline,
    written directly: every string in rays and pieces is ASCII digits, "-",
    "/" and ",", which JSON never escapes.  The construction block, an
    arbitrary JSON object, goes through json.dumps and is indented one level.
    """
    rays = [
        f'    {{\n      "dx": "{format_rational(r.dx)}",\n      "dy": "{format_rational(r.dy)}"\n    }}'
        for r in spline.fan.rays
    ]
    pieces = []
    for piece in spline.pieces:
        numerators, den = piece.integer_frame()
        ordered = sorted(numerators.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))
        monomials = [f'        "{i},{j}": "{_format_ratio(c, den)}"' for (i, j), c in ordered]
        pieces.append(f'    {{\n      "monomials": {_json_block(monomials, "{}", "      ")}\n    }}')
    text = f'{{\n  "rays": {_json_block(rays, "[]", "  ")},\n  "pieces": {_json_block(pieces, "[]", "  ")}'
    if construction is not None:
        text += ',\n  "construction": ' + json.dumps(construction, indent=2).replace("\n", "\n  ")
    return text + "\n}\n"


def _json_block(lines: list[str], brackets: str, indent: str) -> str:
    """A JSON array or object of already indented lines, closed at `indent`."""
    if not lines:
        return brackets
    return brackets[0] + "\n" + ",\n".join(lines) + "\n" + indent + brackets[1]


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


def _rational_error(value, exc: DomainError, where: str) -> SchemaError:
    """The SchemaError for a value at `where` that did not parse as a rational."""
    if not isinstance(value, str):
        return SchemaError(f"{where}: rationals must be strings like \"-3/4\"")
    return SchemaError(f"{where}: {exc}")


def _parse_rational_at(value, where: str, read=_parse_ratio) -> tuple[int, int] | Fraction:
    try:
        return read(value)
    except DomainError as exc:
        raise _rational_error(value, exc, where) from None


def _parse_piece(monomials: dict, where: str, keys: dict[str, tuple[int, int]]) -> BiPoly:
    """A piece's monomials as one integer frame: each "p/q" is read as the
    integers (p, q), and the frame's denominator is the lcm of the q.

    `keys` maps each monomial key already read in the document to its
    (i, j), so a key that several pieces share is parsed and checked once.
    """
    ratios: dict[tuple[int, int], tuple[int, int]] = {}
    for key, value in monomials.items():
        mono = keys.get(key)
        if mono is None:
            match = _MONOMIAL_KEY.fullmatch(key)
            if match is None:
                raise SchemaError(f"{where}: monomial key {key!r} is not \"i,j\"")
            try:
                mono = int(match[1]), int(match[2])
            except ValueError:
                # Python refuses integer literals above sys.get_int_max_str_digits() digits.
                raise SchemaError(f"{where}: monomial key {key!r} has total degree above {MAX_DEGREE}") from None
            if mono[0] + mono[1] > MAX_DEGREE:
                raise SchemaError(f"{where}: monomial key {key!r} has total degree above {MAX_DEGREE}")
            keys[key] = mono
        if mono in ratios:
            raise SchemaError(f"{where}: duplicate monomial {key!r}")
        try:
            ratios[mono] = _parse_ratio(value)
        except DomainError as exc:
            raise _rational_error(value, exc, f"{where}[{key!r}]") from None
    common = math.lcm(*(q for _, q in ratios.values()))
    return BiPoly._from_frame({mono: p * (common // q) for mono, (p, q) in ratios.items()}, common)


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's fields; a repeated key is an error (json.loads alone keeps the last)."""
    fields = dict(pairs)
    if len(fields) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return fields


def decode_document(text: str) -> tuple[PiecewisePoly, dict | None]:
    """Parse spline JSON, returning the spline and any construction block."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_fields)
    except SchemaError:  # a repeated key; SchemaError is a ValueError, which the last clause maps
        raise
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    except ValueError:
        # json.loads refuses integer literals above Python's digit limit.
        raise SchemaError(f"invalid JSON: integer literal above {sys.get_int_max_str_digits()} digits") from None
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
        dx = _parse_rational_at(entry["dx"], f"{where}.dx", parse_rational)
        dy = _parse_rational_at(entry["dy"], f"{where}.dy", parse_rational)
        if dx == 0 and dy == 0:
            raise SchemaError(f"{where}: zero direction")
        rays.append(Ray(dx, dy))

    pieces, keys = [], {}
    for idx, entry in enumerate(pieces_field):
        where = f"pieces[{idx}]"
        _require_keys(entry, {"monomials"}, set(), where)
        monomials = entry["monomials"]
        if not isinstance(monomials, dict):
            raise SchemaError(f"{where}.monomials: expected an object")
        pieces.append(_parse_piece(monomials, f"{where}.monomials", keys))

    fan = build_fan(rays)
    if fan.rays != tuple(rays):
        raise SchemaError("rays are not in clockwise order starting from the first")

    construction = doc.get("construction")
    if "construction" in doc:
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


def _integer_terms(piece: BiPoly, frame: int) -> tuple[list[int], list[tuple[int, int, int]], int]:
    """The piece at (X/frame, Y/frame) as integers over one denominator.

    With D the lcm of the piece's denominators and T its total degree,
    p(X/frame, Y/frame) = sum c_ij D frame^(T-i-j) X^i Y^j / (D frame^T).
    Returns the x-exponents i that have a term, from the top down, each
    term as (position of its i in that list, j, integer coefficient), and
    the denominator D frame^T.
    """
    terms, common = piece.integer_frame()
    top = max((i + j for i, j in terms), default=0)
    exponents = sorted({i for i, _ in terms}, reverse=True)
    position = {i: at for at, i in enumerate(exponents)}
    integer_terms = [(position[i], j, c * frame ** (top - i - j)) for (i, j), c in terms.items()]
    return exponents, integer_terms, common * frame**top


def _horner_steps(exponents: list[int], coeffs: list[int]) -> tuple[int, list[int], list[int] | None]:
    """Horner's scheme for the sum of a*X^i over descending exponents i and their coefficients a.

    Returns (lead, steps, gaps): start from num = lead, then num = num*X^gap + a
    for each step a and its gap.  Zero coefficients take no step, and a last
    step of 0 multiplies by X^i when the lowest nonzero term has i > 0, so a
    point costs at most one step per nonzero term, and none for a constant.
    gaps is None when every gap is 1.
    """
    if exponents and exponents[0] == len(exponents) - 1 and all(coeffs):
        return coeffs[0], coeffs[1:], None
    terms = [(i, a) for i, a in zip(exponents, coeffs) if a]
    if not terms:
        return 0, [], None
    (top, lead), steps, gaps = terms[0], [], []
    for i, a in terms[1:]:
        steps.append(a)
        gaps.append(top - i)
        top = i
    if top:
        steps.append(0)
        gaps.append(top)
    return lead, steps, None if all(gap == 1 for gap in gaps) else gaps


def _column_power(column_powers: dict[int, dict[int, int]], xs: list[int], gap: int, k: int) -> int:
    """xs[k]**gap, computed on first use and kept in column_powers[gap][k]."""
    powers = column_powers.setdefault(gap, {})
    power = powers.get(k)
    if power is None:
        power = powers[k] = xs[k] ** gap
    return power


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
    X = Y*dx/dy, and `fan.row_crossings` gives each half-plane's crossings
    in order and the sector between them, so `locate_sector` runs only for
    a half-plane that no ray enters and for the two sides of the row y = 0:
    at most 4 calls a grid.
    Each piece is cleared to integers over one fixed denominator once a
    grid and restricted to a row once per sector met, kept by its nonzero
    X-terms.  A run of points whose row polynomial has no X term shares one
    value, one int/int division; otherwise a point costs one Horner step
    per nonzero term (`_horner_steps`) and one correctly rounded division.
    Every row has the same X, so each X^gap of a gap > 1 is computed once
    per column a grid.  The rows are identical to those of locating and
    evaluating each point on its own, and so is the point that an overflow
    names.
    """
    if grid_n < 2:
        raise DomainError("grid_n must be at least 2")
    check_exponents(grid_n)
    if not isinstance(radius, Real):
        raise TypeError(f"radius must be a real number, got {type(radius).__name__}")
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
    upper, lower = row_crossings(fan, 1), row_crossings(fan, -1)
    pieces = [_integer_terms(piece, frame) for piece in spline.pieces]
    y_exponents = sorted({j for piece in spline.pieces for _, j in piece.integer_frame()[0]})
    column_powers: dict[int, dict[int, int]] = {}
    rows = []
    for y, row in zip(reversed(coords), reversed(xs)):
        # Y^j for each y-exponent j of a term, stepping from the one below.
        powers, power, below = {}, 1, 0
        for j in y_exponents:
            power *= row if j - below == 1 else row ** (j - below)
            powers[j], below = power, j
        if row:
            before, crossings = upper if row > 0 else lower
        else:
            # The row through the origin: one crossing, at the origin, whose sector is -1.
            before, crossings = locate_sector(fan, -1, 0), [(0, 1, -1, locate_sector(fan, 1, 0))]
        restricted: dict[int, tuple[int, list[int], list[int] | None, int]] = {}
        for start, stop, sector in _row_runs(xs, row, before, crossings):
            if sector not in restricted:
                # The piece on this row, in X; the origin's sector -1 takes piece 0.
                exponents, terms, den = pieces[max(sector, 0)]
                coeffs = [0] * len(exponents)
                for at, j, c in terms:
                    coeffs[at] += c * powers[j]
                restricted[sector] = *_horner_steps(exponents, coeffs), den
            lead, steps, gaps, den = restricted[sector]
            if not steps:
                # Constant along the row: one division, shared by the whole run.
                try:
                    value = lead / den
                except OverflowError:
                    raise _too_large(coords[start], y) from None
                rows.extend([(x, y, value, sector) for x in coords[start:stop]])
                continue
            for k in range(start, stop):
                x, num = xs[k], lead
                if gaps is None:
                    for coeff in steps:
                        num = num * x + coeff
                else:
                    for gap, coeff in zip(gaps, steps):
                        num = num * (x if gap == 1 else _column_power(column_powers, xs, gap, k)) + coeff
                try:
                    value = num / den
                except OverflowError:
                    raise _too_large(coords[k], y) from None
                rows.append((coords[k], y, value, sector))
    return rows


def _too_large(x: float, y: float) -> DomainError:
    return DomainError(f"the value at ({x!r}, {y!r}) is too large for a float; use a smaller radius")


class _FloatText(dict):
    """Each float's 17-significant-digit text, formatted on first use.  Zeros
    are never stored: 0.0 and -0.0 are one dict key but print differently."""

    def __missing__(self, value: float) -> str:
        text = f"{value:.17g}"
        if value:
            self[value] = text
        return text


def render_grid_csv(rows: Sequence[tuple[float, float, float, int]]) -> str:
    """Deterministic CSV text: fixed header, 17 significant digits.

    A grid repeats its coordinates and most of its values, so each distinct
    nonzero float is formatted once.  A row whose y, value and sector are
    the same objects as the previous row's (`is`, so 0.0 and -0.0 never
    mix) reuses its ",y,value,sector" text, as a constant run from
    `sample_grid` does.
    """
    text = _FloatText()
    lines = [CSV_HEADER]
    last_y = last_value = last_sector = tail = None
    for x, y, value, sector in rows:
        if y is not last_y or value is not last_value or sector is not last_sector:
            last_y, last_value, last_sector = y, value, sector
            tail = f",{text[y]},{text[value]},{sector}"
        lines.append(text[x] + tail)
    return "\n".join(lines) + "\n"
