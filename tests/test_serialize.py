import json
import re
from pathlib import Path

import pytest

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
    render_grid_csv,
    sample_grid,
)


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
    for key in ("0", "0,2,1", "-1,0", "a,b"):
        doc = _document(pieces=[{"monomials": {}}, {"monomials": {key: "1"}}])
        with pytest.raises(SchemaError):
            decode_spline(json.dumps(doc))


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


def test_decode_maps_deep_nesting_to_schema_error():
    with pytest.raises(SchemaError, match="invalid JSON"):
        decode_spline("[" * 100000 + "]" * 100000)


def test_decode_maps_overlong_integer_to_schema_error():
    # json.loads refuses integer literals above Python's digit limit with ValueError
    with pytest.raises(SchemaError, match="invalid JSON"):
        decode_spline('{"n": ' + "1" * 5000 + "}")


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
    with pytest.raises(Exception):
        sample_grid(spline, 1, 1.0)
    with pytest.raises(Exception):
        sample_grid(spline, 4, 0.0)


def test_sample_grid_rejects_values_beyond_float_range():
    spline = build_counterexample([1, 2, 3, 4, 5], 4).spline
    with pytest.raises(DomainError, match="too large for a float"):
        sample_grid(spline, 4, 1e100)
