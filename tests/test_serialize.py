import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supersmooth import (
    BiPoly,
    DomainError,
    Ray,
    SchemaError,
    X,
    Y,
    PiecewisePoly,
    build_counterexample,
    build_fan,
    build_halfplane_example,
    decode_document,
    decode_spline,
    encode_counterexample,
    encode_spline,
    format_rational,
    locate_sector,
    render_grid_csv,
    sample_grid,
    serialize,
)
from helpers import per_line_grid_csv, pointwise_sample_grid, reference_encode_spline


def test_round_trip_counterexample():
    spec = build_counterexample([1, 2], 1)
    decoded = decode_spline(encode_counterexample(spec))
    assert decoded.fan.rays == spec.spline.fan.rays
    assert decoded.pieces == spec.spline.pieces


def test_round_trip_preserves_construction_block():
    spec = build_counterexample([1, 2, 3], 2)
    _, construction = decode_document(encode_counterexample(spec))
    assert construction == {"n": 2, "slopes": ["1", "2", "3"], "coeffs": ["3", "-3", "1"]}


def test_round_trip_rational_coefficients():
    from fractions import Fraction

    fan = build_fan([Ray(1, 0), Ray(-1, 2)])
    pieces = (BiPoly({(1, 2): Fraction(-3, 7), (0, 0): Fraction(5, 2)}), X * Y)
    spline = PiecewisePoly(fan=fan, pieces=pieces)
    decoded = decode_spline(encode_spline(spline))
    assert decoded.pieces == spline.pieces
    assert decoded.fan == spline.fan


_RAY_COMPONENTS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_CONSTRUCTION_BLOCKS = st.integers(1, 4).flatmap(
    lambda n: st.fixed_dictionaries({
        "n": st.just(n),
        "slopes": st.lists(st.fractions(max_denominator=9).map(format_rational), min_size=n + 1, max_size=n + 1),
        "coeffs": st.lists(st.integers(-99, 99).map(format_rational), min_size=n + 1, max_size=n + 1),
    })
)


@st.composite
def _encodable_splines(draw) -> PiecewisePoly:
    """Fans of 2..5 rays with rational components (Ray clears them) and the
    grid tests' pieces, the zero piece among them."""
    directions = draw(st.lists(
        st.tuples(_RAY_COMPONENTS, _RAY_COMPONENTS).filter(lambda d: d != (0, 0)), min_size=2, max_size=5
    ))
    rays = list(dict.fromkeys(Ray(*d) for d in directions))
    if len(rays) < 2:
        rays.append(Ray(-rays[0].dx, -rays[0].dy))
    fan = build_fan(rays)
    return PiecewisePoly(fan=fan, pieces=tuple(draw(_PIECES) for _ in fan.rays))


@settings(max_examples=100, deadline=None)
@given(_encodable_splines(), st.none() | _CONSTRUCTION_BLOCKS)
def test_encode_spline_equals_the_json_dumps_route(spline, construction):
    text = encode_spline(spline, construction)
    assert text == reference_encode_spline(spline, construction)
    # decoded pieces carry only their integer frame until read; they encode alike
    decoded, block = decode_document(text)
    assert block == construction
    assert encode_spline(decoded, block) == text


@pytest.mark.parametrize("slopes, n", [([1, 2], 1), ([Fraction(-1, 2), Fraction(1, 3), 2, Fraction(5, 7)], 3)])
def test_encode_counterexample_equals_the_json_dumps_route(slopes, n):
    spec = build_counterexample(slopes, n)
    construction = {
        "n": n,
        "slopes": [format_rational(a) for a in spec.slopes],
        "coeffs": [format_rational(c) for c in spec.coeffs],
    }
    assert encode_counterexample(spec) == reference_encode_spline(spec.spline, construction)


def _document(**overrides):
    doc = {
        "rays": [{"dx": "1", "dy": "0"}, {"dx": "-1", "dy": "0"}],
        "pieces": [{"monomials": {}}, {"monomials": {"0,2": "1"}}],
    }
    doc.update(overrides)
    return doc


def test_decode_rejects_zero_denominator():
    doc = _document(pieces=[{"monomials": {}}, {"monomials": {"0,2": "1/0"}}])
    with pytest.raises(SchemaError, match="pieces"):
        decode_spline(json.dumps(doc))


def test_decode_rejects_unknown_top_level_field():
    with pytest.raises(SchemaError, match="unknown"):
        decode_spline(json.dumps(_document(extra=1)))


def test_decode_rejects_unknown_nested_field():
    doc = _document(rays=[{"dx": "1", "dy": "0", "dz": "0"}, {"dx": "-1", "dy": "0"}])
    with pytest.raises(SchemaError, match="unknown"):
        decode_spline(json.dumps(doc))


def test_decode_rejects_length_mismatch():
    doc = _document(pieces=[{"monomials": {}}])
    with pytest.raises(SchemaError, match="match"):
        decode_spline(json.dumps(doc))


def test_decode_rejects_bad_monomial_key():
    for key in ("0", "0,2,1", "-1,0", "a,b", " +1_0 ,0", "1_0,0", "+1,0", "1,0 ", "\u0663,0", "0,\uff12"):
        doc = _document(pieces=[{"monomials": {}}, {"monomials": {key: "1"}}])
        with pytest.raises(SchemaError):
            decode_spline(json.dumps(doc))


def test_decode_rejects_overlong_exponent():
    # beyond Python's integer digit limit as well as MAX_DEGREE
    doc = _document(pieces=[{"monomials": {}}, {"monomials": {"1" * 5000 + ",0": "1"}}])
    with pytest.raises(SchemaError, match="total degree above"):
        decode_spline(json.dumps(doc))


@pytest.mark.parametrize(
    "pieces, message",
    [
        # "01,2" maps to the (1, 2) that "1,2" already names, in either piece
        ([{"1,2": "1"}, {"1,2": "1", "01,2": "2"}], "pieces[1].monomials: duplicate monomial '01,2'"),
        ([{"01,2": "1"}, {"1,2": "1", "01,2": "2"}], "pieces[1].monomials: duplicate monomial '01,2'"),
        # a bad key in both pieces is reported in the first
        ([{"1,x": "1"}, {"1,x": "1"}], "pieces[0].monomials: monomial key '1,x' is not \"i,j\""),
        ([{"1,2": "1"}, {"1,2": "1", "999,2": "1"}],
         "pieces[1].monomials: monomial key '999,2' has total degree above 1000"),
        # a key read before still has its coefficient checked in each piece
        ([{"1,2": "1"}, {"1,2": "1/0"}], "pieces[1].monomials['1,2']: zero denominator: '1/0'"),
    ],
)
def test_decode_reads_a_shared_key_once_and_names_the_same_piece(pieces, message):
    doc = _document(pieces=[{"monomials": monomials} for monomials in pieces])
    with pytest.raises(SchemaError) as info:
        decode_spline(json.dumps(doc))
    assert str(info.value) == message


def test_decode_matches_each_distinct_key_once(monkeypatch):
    keys = []

    class CountingPattern:
        def fullmatch(self, key):
            keys.append(key)
            return pattern.fullmatch(key)

    pattern = serialize._MONOMIAL_KEY
    monkeypatch.setattr(serialize, "_MONOMIAL_KEY", CountingPattern())
    spline = decode_spline(encode_counterexample(build_counterexample([1, 2, 3, 4], 3)))
    assert sorted(keys) == sorted({f"{i},{j}" for piece in spline.pieces for i, j in piece.integer_frame()[0]})


_monomials = st.tuples(st.integers(0, serialize.MAX_DEGREE), st.integers(0, serialize.MAX_DEGREE)).filter(
    lambda mono: sum(mono) <= serialize.MAX_DEGREE
)
_exact_coefficients = st.one_of(st.integers(-10**30, 10**30), st.booleans(), st.fractions(max_denominator=10**12))
_piece_terms = st.dictionaries(_monomials, _exact_coefficients, max_size=6)


@given(st.lists(_piece_terms, min_size=3, max_size=3))
@example([{(0, 0): 1, (10, 0): -2, (0, 1000): 3}, {(123, 456): 1, (1, 1): 7}, {}])
@example([{(1000, 0): True, (0, 0): False}, {(0, 1): Fraction(-7, 3)}, {(500, 500): 10**30}])
def test_encoded_keys_round_trip(terms):
    # Everything BiPoly accepts (int exponents, int, bool or Fraction
    # coefficients) survives encode and decode.
    fan = build_fan([Ray(1, 0), Ray(0, -1), Ray(-1, 3)])
    spline = PiecewisePoly(fan=fan, pieces=tuple(BiPoly(t) for t in terms))
    assert decode_spline(encode_spline(spline)).pieces == spline.pieces


def test_decode_rejects_non_clockwise_rays():
    doc = _document(
        rays=[{"dx": "1", "dy": "0"}, {"dx": "1", "dy": "1"}, {"dx": "1", "dy": "-1"}],
        pieces=[{"monomials": {}}] * 3,
    )
    with pytest.raises(SchemaError, match="clockwise"):
        decode_spline(json.dumps(doc))


def test_decode_rejects_invalid_json():
    with pytest.raises(SchemaError, match="invalid JSON"):
        decode_spline("{not json")


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"rays": [], "rays": [], "pieces": []}', "rays"),
        ('{"rays": [], "pieces": [], "construction": {"n": 1, "n": 2, "slopes": [], "coeffs": []}}', "n"),
        ('{"rays": [], "pieces": [{"monomials": {"1,0": "1", "1,0": "1"}}]}', "1,0"),
    ],
)
def test_decode_rejects_a_repeated_key_at_any_depth(text, key):
    # even when both values agree; the error comes before any schema check
    with pytest.raises(SchemaError, match=f"^duplicate key '{key}' in a JSON object$"):
        decode_document(text)


def test_decode_maps_deep_nesting_to_schema_error():
    with pytest.raises(SchemaError, match="invalid JSON"):
        decode_spline("[" * 100000 + "]" * 100000)


def test_decode_maps_overlong_integer_to_schema_error():
    # json.loads refuses integer literals above Python's digit limit
    # with ValueError; the message names the limit, not a Python function.
    with pytest.raises(SchemaError, match=r"^invalid JSON: integer literal above 4300 digits$"):
        decode_spline('{"n": ' + "1" * 5000 + "}")


# {x^1000 below the x-axis, y^1000/3 above}: 137 bytes.
_POWER_1000 = (
    '{"rays": [{"dx": "1", "dy": "0"}, {"dx": "-1", "dy": "0"}], "pieces": '
    '[{"monomials": {"1000,0": "1"}}, {"monomials": {"0,1000": "1/3"}}]}'
)


def test_high_degree_piece_samples_like_the_pointwise_route():
    # y^1000 above the x-axis: each row's powers of Y reach Y^1000; then
    # x^1000 below it as well, one Horner step of X^1000 a point.
    text = json.dumps({
        "rays": [{"dx": "1", "dy": "0"}, {"dx": "-1", "dy": "0"}],
        "pieces": [{"monomials": {}}, {"monomials": {"0,1000": "1"}}],
    })
    for spline in (decode_spline(text), decode_spline(_POWER_1000)):
        for grid_n in (2, 5, 8):
            rows = sample_grid(spline, grid_n, 1.0)
            assert render_grid_csv(rows) == render_grid_csv(pointwise_sample_grid(spline, grid_n, 1.0))


def _construction(**overrides):
    block = {"n": 1, "slopes": ["1", "2"], "coeffs": ["2", "-1"]}
    block.update(overrides)
    return block


@pytest.mark.parametrize(
    "block",
    [
        "x",
        [],
        _construction(extra=1),
        {"n": 1, "slopes": ["1", "2"]},
        _construction(n="x"),
        _construction(n=True),
        _construction(n=1.0),
        _construction(n=0),
        _construction(n=-1),
        _construction(n=2),
        _construction(n=int("9" * 4300)),  # n+1 has too many digits to print
        _construction(slopes="1,2"),
        _construction(slopes=["1"]),
        _construction(coeffs=["2", "-1", "0"]),
        _construction(slopes=[1, 2]),
        _construction(coeffs=["2", "1.5"]),
        _construction(coeffs=["2", "1/0"]),
        None,  # a present key holds an object; only an absent one means no block
    ],
)
def test_decode_rejects_invalid_construction(block):
    with pytest.raises(SchemaError, match="construction"):
        decode_document(json.dumps(_document(construction=block)))


@pytest.mark.parametrize(
    "block",
    [
        _construction(),
        _construction(n=3, slopes=["1", "-2", "3/4", "5"], coeffs=["0", "1", "-7/2", "2"]),
    ],
)
def test_decode_accepts_valid_construction(block):
    _, construction = decode_document(json.dumps(_document(construction=block)))
    assert construction == block


def test_readme_example_document_is_valid():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    spline, construction = decode_document(example)
    assert len(spline.pieces) == 2
    assert construction["n"] == 1


def test_sample_grid_constant_zero():
    fan = build_fan([Ray(1, 0), Ray(0, 1)])
    spline = PiecewisePoly(fan=fan, pieces=(BiPoly.zero(), BiPoly.zero()))
    rows = sample_grid(spline, 3, 1.0)
    assert len(rows) == 9
    assert all(value == 0.0 for _, _, value, _ in rows)


def test_sample_grid_halfplane_value():
    spline = build_halfplane_example(1, [0])
    rows = {(x, y): (value, sector) for x, y, value, sector in sample_grid(spline, 5, 1.0)}
    value, sector = rows[(0.0, 0.5)]
    assert value == 0.25
    assert sector in (1, 2)  # an upper sector


def test_sample_grid_counterexample_sector():
    spline = build_counterexample([1, 2], 1).spline
    rows = {(x, y): (value, sector) for x, y, value, sector in sample_grid(spline, 5, 1.0)}
    value, sector = rows[(1.0, -0.5)]
    assert sector == 0
    assert value == 0.0


def test_sample_grid_origin_row():
    spline = build_halfplane_example(1, [0])
    rows = {(x, y): (value, sector) for x, y, value, sector in sample_grid(spline, 3, 2.0)}
    assert rows[(0.0, 0.0)] == (0.0, -1)


def test_csv_rendering_is_deterministic():
    spline = build_counterexample([1, 2], 1).spline
    text_a = render_grid_csv(sample_grid(spline, 4, 1.5))
    text_b = render_grid_csv(sample_grid(spline, 4, 1.5))
    assert text_a == text_b
    lines = text_a.splitlines()
    assert lines[0] == "x,y,value,sector"
    assert len(lines) == 17
    # row-major with y descending, x ascending
    assert lines[1].startswith("-1.5,1.5,")
    assert lines[2].startswith("-0.5,1.5,")
    assert lines[-1].startswith("1.5,-1.5,")


def test_sample_grid_validates_arguments():
    spline = build_halfplane_example(0)
    with pytest.raises(DomainError, match="grid_n"):
        sample_grid(spline, 1, 1.0)
    with pytest.raises(DomainError, match="radius"):
        sample_grid(spline, 4, 0.0)
    with pytest.raises(DomainError, match="radius"):
        sample_grid(spline, 4, float("nan"))


def test_sample_grid_rejects_values_beyond_float_range():
    spline = build_counterexample([1, 2, 3, 4, 5], 4).spline
    with pytest.raises(DomainError, match="too large for a float"):
        sample_grid(spline, 4, 1e100)


# -- the row scan against the per-point route ------------------------------------

def _csv_or_error(route, spline, grid_n, radius) -> str:
    try:
        return render_grid_csv(route(spline, grid_n, radius))
    except DomainError as exc:
        return f"DomainError: {exc}"


def _assert_routes_agree(spline, grid_n, radius) -> str:
    text = _csv_or_error(sample_grid, spline, grid_n, radius)
    assert text == _csv_or_error(pointwise_sample_grid, spline, grid_n, radius)
    return text


_DIRECTIONS = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda d: d != (0, 0))
_AXES = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])
_PIECES = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda m: sum(m) <= 5),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
    max_size=6,
).map(BiPoly)  # the empty map is the zero piece
# Pieces constant along every row: 0 and c*y^k.
_X_FREE_PIECES = st.one_of(
    st.just(BiPoly.zero()),
    st.builds(lambda c, k: c * Y**k, st.fractions(min_value=-20, max_value=20, max_denominator=9), st.integers(0, 5)),
)


@st.composite
def _grid_splines(draw) -> PiecewisePoly:
    """Fans of 2..7 rays in [-4, 4]^2, with axis rays and opposite pairs drawn often,
    and pieces that are often constant in x.

    A 2-ray fan that is not an opposite pair has a sector wider than a half-turn.
    """
    directions = draw(st.lists(st.one_of(_DIRECTIONS, _AXES), min_size=1, max_size=6))
    if draw(st.booleans()):
        dx, dy = draw(st.sampled_from(directions))
        directions.append((-dx, -dy))
    rays = list(dict.fromkeys(Ray(*d) for d in directions))
    if len(rays) < 2:
        rays.append(Ray(-rays[0].dx, -rays[0].dy))
    fan = build_fan(rays)
    return PiecewisePoly(fan=fan, pieces=tuple(draw(st.one_of(_PIECES, _X_FREE_PIECES)) for _ in fan.rays))


@settings(max_examples=150, deadline=None)
@given(
    _grid_splines(),
    st.one_of(st.integers(2, 40), st.sampled_from([3, 5, 9])),  # odd sizes have the origin row
    st.sampled_from([5e-324, 1e-320, 1e-3, 0.1, 1.0, 1.5, 7.0, 123.456]),
)
def test_row_scan_csv_equals_the_pointwise_route(spline, grid_n, radius):
    _assert_routes_agree(spline, grid_n, radius)


_DENSE = st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(lambda d: d != (0, 0))
# Rays through points of the 5-, 9- and 17-point grids of radius 1, in both halves.
_ON_GRID = st.sampled_from([(1, 1), (1, 2), (2, 1), (3, 1), (1, 3), (3, 2), (2, 3)]).flatmap(
    lambda d: st.sampled_from([d, (-d[0], d[1]), (d[0], -d[1]), (-d[0], -d[1])])
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(_DENSE, _ON_GRID, _AXES), min_size=2, max_size=14),
    st.data(),
    st.sampled_from([5, 9, 13, 17]),
)
def test_row_scan_on_dense_fans_equals_the_pointwise_route(directions, data, grid_n):
    # Rays in [-60, 60]^2 often cross a row several times between two
    # adjacent columns; the on-grid rays put grid points exactly on rays.
    rays = list(dict.fromkeys(Ray(*d) for d in directions))
    if len(rays) < 2:
        rays.append(Ray(-rays[0].dx, -rays[0].dy))
    fan = build_fan(rays)
    spline = PiecewisePoly(fan=fan, pieces=tuple(data.draw(_PIECES) for _ in fan.rays))
    _assert_routes_agree(spline, grid_n, 1.0)


def _dense_fan_spline() -> PiecewisePoly:
    # Three rays just above the diagonal in each half: on the row y = 1/4 of
    # the 9-point grid they cross between the columns x = 0 and x = 1/4.
    directions = [(1, 1), (10, 11), (11, 12), (12, 13), (-1, -1), (-10, -11), (-11, -12), (-12, -13), (1, -2), (-1, 3)]
    fan = build_fan([Ray(*d) for d in directions])
    pieces = [X * (j + 1) - Y * Fraction(1, j + 2) + X * Y * j for j in range(len(fan.rays))]
    return PiecewisePoly(fan=fan, pieces=tuple(pieces))


def test_row_scan_dense_fan_with_points_on_rays_in_both_halves():
    spline = _dense_fan_spline()
    rays = spline.fan.rays
    text = _assert_routes_agree(spline, 9, 1.0)
    cells = {(x, y): sector for x, y, _, sector in (line.split(",") for line in text.splitlines()[1:])}
    assert cells["0.25", "0.25"] == str(rays.index(Ray(1, 1)))
    assert cells["-0.25", "-0.25"] == str(rays.index(Ray(-1, -1)))
    assert cells["0.5", "-1"] == str(rays.index(Ray(1, -2)))
    # From x = 0 to x = 1/4 the row y = 1/4 passes three rays, then lands on a fourth.
    assert (int(cells["0.25", "0.25"]) - int(cells["0", "0.25"])) % len(rays) == 4


@pytest.mark.parametrize("directions", [
    [(1, 1), (0, 1), (-1, 1), (-3, 1)],  # every ray above the x-axis
    [(1, -1), (2, -1), (-5, -3)],  # every ray below it
])
@pytest.mark.parametrize("grid_n", [4, 5, 13])
def test_row_scan_fan_in_one_half_plane(directions, grid_n):
    fan = build_fan([Ray(*d) for d in directions])
    spline = PiecewisePoly(fan=fan, pieces=tuple(X * j + Y * Y - j for j in range(len(fan.rays))))
    _assert_routes_agree(spline, grid_n, 1.5)


@pytest.mark.parametrize("directions", [[(1, 0), (0, 1)], [(2, -1), (-1, -3)], [(1, 1), (-1, 2)]])
def test_row_scan_two_ray_fan_wider_than_a_half_turn(directions):
    fan = build_fan([Ray(*d) for d in directions])
    spline = PiecewisePoly(fan=fan, pieces=(X * X - Y, Y * Fraction(3, 7) + 1))
    for grid_n in (5, 8, 13):
        _assert_routes_agree(spline, grid_n, 1.0)


@pytest.mark.parametrize("grid_n", [13, 129])
def test_row_scan_counterexample_at_large_grids(grid_n):
    spline = build_counterexample([1, Fraction(-2, 3), 3, Fraction(5, 2), -4], 4).spline
    _assert_routes_agree(spline, grid_n, 1.5)


@pytest.mark.parametrize("spline", [
    build_counterexample([1, 2, 3], 2).spline,
    build_halfplane_example(2),
    _dense_fan_spline(),
    PiecewisePoly(fan=build_fan([Ray(1, 1), Ray(-1, 1)]), pieces=(X, Y)),
    PiecewisePoly(fan=build_fan([Ray(1, -1), Ray(-1, -2)]), pieces=(X, Y)),
], ids=["counterexample", "halfplane", "dense", "upper-only", "lower-only"])
@pytest.mark.parametrize("grid_n", [2, 9, 33])
def test_row_scan_locates_at_most_four_points_per_grid(monkeypatch, spline, grid_n):
    calls = []

    def counted(fan, x, y):
        calls.append((x, y))
        return locate_sector(fan, x, y)

    monkeypatch.setattr(serialize, "locate_sector", counted)
    rows = sample_grid(spline, grid_n, 1.0)
    assert len(rows) == grid_n**2
    assert len(calls) <= 4


_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 0.1, 1 / 3]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def _csv_runs(draw) -> list[tuple[float, float, float, int]]:
    """Rows in runs that share their y and value objects, as `sample_grid` emits
    them, from a small pool of floats, so coordinates and values repeat as in
    a grid.  The pool holds each float twice: the same bits (nan and -0.0
    included) as two distinct objects; 0.0 and -0.0 are one dict key."""
    pool = [0.0, -0.0, math.nan, math.inf, -math.inf, *draw(st.lists(_CSV_FLOATS, max_size=4))]
    pool += [-(-v) for v in pool]
    pick = st.sampled_from(pool)
    rows = []
    sectors = st.integers(-1, 300)  # ints above 256 are distinct objects when equal
    for y, value, sector, other, length, change in draw(st.lists(
        st.tuples(pick, pick, sectors, sectors, st.integers(1, 6), st.integers(0, 6)), max_size=12
    )):
        # the sector changes in the middle of a run when 0 < change < length
        rows.extend((draw(pick), y, value, sector if k < change else other) for k in range(length))
    return rows


@settings(max_examples=300, deadline=None)
@given(_csv_runs())
@example([(0.0, 1.5, 0.0, 2), (-0.0, 1.5, -0.0, 2), (1.0, -0.0, 0.0, 2)])  # equal, never the same text
def test_csv_equals_the_per_line_format(rows):
    assert render_grid_csv(rows) == per_line_grid_csv(rows)


def test_sampling_costs_the_nonzero_terms_of_each_row(monkeypatch):
    # Each row below the x-axis is c*X^1000: one Horner step, through X^1000
    # read from a cache that holds one power per column; each row above is
    # one constant run, with no step at all.
    plans, caches = [], []
    horner_steps, column_power = serialize._horner_steps, serialize._column_power

    def steps(exponents, coeffs):
        plan = horner_steps(exponents, coeffs)
        plans.append((sum(1 for c in coeffs if c), plan))
        return plan

    def power(column_powers, xs, gap, k):
        caches.append(column_powers)
        return column_power(column_powers, xs, gap, k)

    monkeypatch.setattr(serialize, "_horner_steps", steps)
    monkeypatch.setattr(serialize, "_column_power", power)
    grid_n = 150
    rows = sample_grid(decode_spline(_POWER_1000), grid_n, 1.0)
    assert len(rows) == grid_n**2
    assert all(len(plan[1]) <= nonzero for nonzero, plan in plans)
    assert {(nonzero, len(steps_), tuple(gaps or ())) for nonzero, (_, steps_, gaps) in plans} == {
        (1, 1, (1000,)),  # c*X^1000
        (1, 0, ()),  # c*Y^1000, a nonzero constant
    }
    (cache,) = {id(cache): cache for cache in caches}.values()
    assert list(cache) == [1000]
    assert len(cache[1000]) <= grid_n
    # one cached power read per point below the x-axis (an even grid has no row y = 0)
    assert len(caches) == sum(1 for _, y, _, _ in rows if y < 0) == grid_n**2 // 2


def test_row_scan_points_exactly_on_a_diagonal_ray():
    fan = build_fan([Ray(1, 1), Ray(-1, 0), Ray(-1, -1), Ray(1, -3)])
    spline = PiecewisePoly(fan=fan, pieces=(X * Y, Y * Y - X * Fraction(1, 3), X + 1, X * X * Y - Y * Fraction(1, 7)))
    for grid_n in (5, 9, 17):
        text = _assert_routes_agree(spline, grid_n, 1.0)
        cells = [line.split(",") for line in text.splitlines()[1:]]
        sectors = {sector for x, y, _, sector in cells if x == y}
        assert sectors == {str(fan.rays.index(Ray(1, 1))), str(fan.rays.index(Ray(-1, -1))), "-1"}


def test_row_scan_origin_row():
    fan = build_fan([Ray(1, 0), Ray(0, -1), Ray(-1, 0), Ray(2, 1)])
    spline = PiecewisePoly(fan=fan, pieces=(X - 2, Y * X, X * X + Fraction(1, 3), Y - 5))
    text = _assert_routes_agree(spline, 5, 1.0)
    origin_row = [line for line in text.splitlines()[1:] if line.split(",")[1] == "0"]
    assert [line.split(",")[3] for line in origin_row] == ["2", "2", "-1", "0", "0"]
    assert origin_row[2] == "0,0,-2,-1"


@pytest.mark.parametrize("radius", [1e100, 1e60, 1e80])
def test_row_scan_at_large_radii_names_the_same_overflow_point(radius):
    spline = build_counterexample([1, 2, 3, 4, 5], 4).spline
    _assert_routes_agree(spline, 4, radius)


def test_row_scan_overflow_inside_the_grid_names_the_same_point():
    # x^400 on the lower-right quadrant, zero elsewhere: the first value too
    # large for a float is just right of the origin, in the middle of a row.
    fan = build_fan([Ray(1, 0), Ray(0, -1), Ray(-1, 0)])
    spline = PiecewisePoly(fan=fan, pieces=(X**400, BiPoly.zero(), BiPoly.zero()))
    text = _assert_routes_agree(spline, 7, 100.0)
    assert text.startswith("DomainError: the value at (33.33333333333334, 0.0)")


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2**3000), 2**3000), st.integers(1, 2**3000))
def test_int_true_division_is_the_correctly_rounded_fraction(num, den):
    try:
        expected = float(Fraction(num, den))
    except OverflowError:
        with pytest.raises(OverflowError):
            num / den
    else:
        assert num / den == expected
