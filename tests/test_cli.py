import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from supersmooth import (
    build_counterexample,
    render_report,
    supersmoothness_verdict,
)
from supersmooth import cli
from supersmooth.cli import main
from helpers import schumaker_dimension


def test_construct_check_pipeline_matches_in_memory(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["construct", "--n", "2", "--slopes", "1,2,3", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", str(path)]) == 0
    cli_report = capsys.readouterr().out

    spec = build_counterexample([1, 2, 3], 2)
    assert cli_report == render_report(supersmoothness_verdict(spec.spline))
    assert "global: 1" in cli_report
    assert "origin: 1" in cli_report
    assert "supersmoothness: not applicable" in cli_report


def test_construct_to_stdout(tmp_path, capsys):
    assert main(["construct", "--n", "1", "--slopes", "1,2"]) == 0
    out = capsys.readouterr().out
    assert '"rays"' in out and '"construction"' in out


def test_construct_invalid_slopes_is_domain_error(capsys):
    assert main(["construct", "--n", "2", "--slopes", "1,1,2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_construct_malformed_slope_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "1", "--slopes", "1,oops"])
    assert exc.value.code == 2


def test_check_missing_file(capsys):
    assert main(["check", "/no/such/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_rejects_bad_schema(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rays": [], "pieces": [], "bogus": 1}')
    assert main(["check", str(path)]) == 1
    assert "unknown" in capsys.readouterr().err


def test_dim_command(capsys):
    assert main(["dim", "--degree", "2", "--smoothness", "1", "--slopes", "1,2,3"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_demo_halfplane(capsys):
    assert main(["demo", "halfplane", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "global: 1" in out
    assert "origin: 1" in out
    assert "theorem applicable: no" in out


def test_demo_twopiece_reports_discontinuity(capsys):
    assert main(["demo", "twopiece"]) == 0
    assert "global: not continuous" in capsys.readouterr().out


def test_demo_farin_shows_vertex_gain(capsys):
    assert main(["demo", "farin", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "theorem applicable: yes" in out
    assert "supersmoothness: holds" in out


def test_demo_counterexample_with_slopes(capsys):
    assert main(["demo", "counterexample", "--n", "2", "--slopes", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "coeffs 3,-3,1" in out
    assert "global: 1" in out


def test_demo_numeric_fixtures(capsys):
    assert main(["demo", "corner-quadratic"]) == 0
    out = capsys.readouterr().out
    assert "corner gradient check: pass" in out
    assert "smoothness witness: no" in out

    assert main(["demo", "smooth-parabola"]) == 0
    out = capsys.readouterr().out
    assert "corner gradient check: fail" in out
    assert "smoothness witness: yes" in out

    assert main(["demo", "lemma-xy"]) == 0
    assert "ray lemma check: pass" in capsys.readouterr().out


def test_demo_unknown_name_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["demo", "nope"])
    assert exc.value.code == 2


def test_sample_writes_csv(tmp_path, capsys):
    spline_path = tmp_path / "c.json"
    csv_path = tmp_path / "grid.csv"
    main(["construct", "--n", "1", "--slopes", "1,2", "-o", str(spline_path)])
    capsys.readouterr()
    assert main(["sample", str(spline_path), "--grid-n", "3", "--radius", "1", "-o", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,y,value,sector"
    assert len(lines) == 10
    origin = [line for line in lines if line.startswith("0,0,")]
    assert origin and origin[0].endswith(",-1")


def test_sample_rejects_small_grid(tmp_path, capsys):
    spline_path = tmp_path / "c.json"
    main(["construct", "--n", "1", "--slopes", "1,2", "-o", str(spline_path)])
    capsys.readouterr()
    assert main(["sample", str(spline_path), "--grid-n", "1"]) == 1


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _one_error_line(capsys) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_check_directory_exits_1(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 1
    _one_error_line(capsys)


def test_check_non_utf8_file_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"rays": [\xff\xfe]}')
    assert main(["check", str(path)]) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_sample_rejects_non_finite_radius(tmp_path, capsys, radius):
    spline_path = tmp_path / "c.json"
    main(["construct", "--n", "1", "--slopes", "1,2", "-o", str(spline_path)])
    capsys.readouterr()
    assert main(["sample", str(spline_path), "--radius", radius]) == 1
    _one_error_line(capsys)


def test_sample_rejects_radius_whose_grid_overflows(tmp_path, capsys):
    # 2 * radius * (grid_n - 1) overflows to inf although the radius is finite
    spline_path = tmp_path / "c.json"
    main(["construct", "--n", "1", "--slopes", "1,2", "-o", str(spline_path)])
    capsys.readouterr()
    assert main(["sample", str(spline_path), "--grid-n", "3", "--radius", "1e308"]) == 1
    _one_error_line(capsys)
    assert main(["sample", str(spline_path), "--grid-n", "3", "--radius", "4e307"]) == 0


def _axis_document(monomial: str) -> str:
    # the y-axis in both directions, with pieces 0 and the given monomial
    return (
        '{"rays": [{"dx": "0", "dy": "1"}, {"dx": "0", "dy": "-1"}], '
        '"pieces": [{"monomials": {}}, {"monomials": {"' + monomial + '": "1"}}]}'
    )


def test_check_rejects_degree_above_cap(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(_axis_document("4000,0"))
    assert main(["check", str(path)]) == 1
    _one_error_line(capsys)


def test_check_accepts_degree_at_cap(tmp_path, capsys):
    path = tmp_path / "cap.json"
    path.write_text(_axis_document("1000,0"))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["ray 0: order 999", "ray 1: order 999"]


def test_sample_value_beyond_float_range_exits_1(tmp_path, capsys):
    # the grid coordinates are finite, but degree-5 values near 1e500 are not
    spline_path = tmp_path / "c.json"
    main(["construct", "--n", "4", "--slopes", "1,2,3,4,5", "-o", str(spline_path)])
    capsys.readouterr()
    assert main(["sample", str(spline_path), "--grid-n", "4", "--radius", "1e100"]) == 1
    _one_error_line(capsys)


def test_check_overlong_rational_exits_1(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(
        '{"rays": [{"dx": "' + "1" * 5000 + '", "dy": "0"}, {"dx": "-1", "dy": "0"}], '
        '"pieces": [{"monomials": {}}, {"monomials": {}}]}'
    )
    assert main(["check", str(path)]) == 1
    _one_error_line(capsys)


def test_check_deeply_nested_json_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["check", str(path)]) == 1
    _one_error_line(capsys)


def test_check_rejects_invalid_construction(tmp_path, capsys):
    path = tmp_path / "c.json"
    main(["construct", "--n", "1", "--slopes", "1,2", "-o", str(path)])
    capsys.readouterr()
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    doc["construction"]["n"] = "x"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize(
    "ray, monomial, coeff",
    [
        ('"dx": "\u0663", "dy": "0"', "0,2", "1"),  # Arabic-Indic three
        ('"dx": "1", "dy": "0"', "0,2", "\u0663/\u0664"),
        ('"dx": "1", "dy": "0"', "0,2", "3\\n"),
        ('"dx": "1", "dy": "0"', " +1_0 ,0", "1"),
        ('"dx": "1", "dy": "0"', "\u0663,0", "1"),
    ],
    ids=["arabic-indic-dx", "arabic-indic-coeff", "trailing-newline-coeff", "loose-key", "arabic-indic-key"],
)
def test_check_rejects_loose_digits(tmp_path, capsys, ray, monomial, coeff):
    path = tmp_path / "loose.json"
    path.write_text(
        '{"rays": [{' + ray + '}, {"dx": "-1", "dy": "0"}], '
        '"pieces": [{"monomials": {}}, {"monomials": {"' + monomial + '": "' + coeff + '"}}]}'
    )
    assert main(["check", str(path)]) == 1
    _one_error_line(capsys)


SLOPES_AT_CAP = ",".join(map(str, range(1, 47)))  # 46 slopes in 128 characters


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--degree", "240", "--smoothness", "0", "--slopes", "1,2"],
        ["dim", "--degree", str(cli.MAX_DIM_DEGREE + 1), "--smoothness", "0", "--slopes", "1,2"],
        ["dim", "--degree", "2", "--smoothness", str(cli.MAX_DIM_DEGREE + 1), "--slopes", "1,2"],
        ["construct", "--n", str(cli.MAX_N + 1), "--slopes", ",".join(str(a) for a in range(1, cli.MAX_N + 3))],
        ["demo", "halfplane", "--n", str(cli.MAX_N + 1)],
        ["demo", "counterexample", "--n", str(cli.MAX_N + 1)],
        ["dim", "--degree", "2", "--smoothness", "1", "--slopes", SLOPES_AT_CAP + "0"],
    ],
)
def test_argument_above_its_cap_exits_1(argv, capsys):
    assert main(argv) == 1
    _one_error_line(capsys)


def test_grid_n_above_its_cap_exits_1(tmp_path, capsys):
    spline_path = tmp_path / "c.json"
    main(["construct", "--n", "1", "--slopes", "1,2", "-o", str(spline_path)])
    capsys.readouterr()
    assert main(["sample", str(spline_path), "--grid-n", str(cli.MAX_GRID_N + 1)]) == 1
    _one_error_line(capsys)


def test_arguments_at_their_caps_are_accepted(capsys):
    assert main(["dim", "--degree", "2", "--smoothness", str(cli.MAX_DIM_DEGREE), "--slopes", "1,2"]) == 0
    assert main(["demo", "halfplane", "--n", str(cli.MAX_N)]) == 0
    assert capsys.readouterr().out.startswith(f"6\nhalf-plane example, n={cli.MAX_N}\n")


def test_dim_slopes_at_the_text_cap_are_accepted_at_the_degree_cap(capsys):
    assert len(SLOPES_AT_CAP) == cli.MAX_DIM_SLOPES_CHARS
    # the cap counts the canonical text: "02/2" is written "1"
    argv = ["dim", "--degree", str(cli.MAX_DIM_DEGREE), "--smoothness", "24", "--slopes", "02/2" + SLOPES_AT_CAP[1:]]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"{schumaker_dimension(47, 47, cli.MAX_DIM_DEGREE, 24)}\n"


def test_caps_admit_the_documented_sizes():
    # dim degrees, orders n and grid sizes used by the tests, README and benchmark
    assert cli.MAX_DIM_DEGREE > 12 and cli.MAX_N > 16 and cli.MAX_GRID_N > 129


def _outcome(argv, capsys) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_matches_a_fresh_one(tmp_path, capsys):
    document = tmp_path / "c.json"
    document.write_text(_axis_document("0,3"))
    argvs = [
        ["demo", "twopiece"],
        ["dim", "--degree", "2", "--smoothness", "1", "--slopes", "1,2,3"],
        ["check", str(document), "--max-order", "1"],
        ["check", str(document), "--max-order", "x"],  # usage error
        ["construct", "--n", "1", "--slopes", "1,2"],
        ["--help"],
        ["demo", "--help"],
        ["sample"],  # usage error: no file
        ["demo", "counterexample", "--n", "2", "--max-order", "0"],
        ["check", str(document)],
    ]
    reused = [_outcome(argv, capsys) for argv in argvs]
    assert cli._build_parser.cache_info().currsize == 1
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 2, 0, 0, 0, 2, 2, 0]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "DOC", "--max-order", "1"],
        ["demo", "counterexample", "--n", "2", "--max-order", "-1"],
        ["demo", "halfplane", "--n", "2", "--max-order", "0"],
    ],
)
def test_origin_order_cap_is_not_an_option(tmp_path, capsys, argv):
    document = tmp_path / "c.json"
    document.write_text(_axis_document("0,3"))
    with pytest.raises(SystemExit) as exc:
        main([str(document) if arg == "DOC" else arg for arg in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


_LONG_SLOPES = ",".join(str(k * 10**2999 + 1) for k in (1, 2, 3))


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--n", "2", "--slopes", _LONG_SLOPES],
        ["demo", "counterexample", "--n", "2", "--slopes", _LONG_SLOPES],
    ],
    ids=["construct", "demo"],
)
def test_number_too_long_to_print_exits_1(tmp_path, capsys, argv):
    assert main(argv) == 1
    _one_error_line(capsys)
    if argv[0] == "construct":
        output = tmp_path / "c.json"
        assert main(argv + ["-o", str(output)]) == 1
        _one_error_line(capsys)
        assert not output.exists()


# Keys of the spline schema, so that generated objects get past the first checks.
_SCHEMA_KEYS = ("rays", "pieces", "construction", "dx", "dy", "monomials", "n", "slopes", "coeffs", "0,0", "1,2")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["0", "1", "-3/4", "1/0", "2"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_SCHEMA_KEYS) | st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)
_rational_texts = st.sampled_from(["0", "1", "-1", "2", "-3/4", "7/5"])


def _documents(k):
    """Schema-shaped documents with k rays and arbitrary leaves; many reach the verdict."""
    ray = st.fixed_dictionaries({"dx": _rational_texts, "dy": _rational_texts})
    monomials = st.dictionaries(st.sampled_from(["0,0", "1,0", "0,2", "3,1", "40,0"]), _rational_texts, max_size=3)
    return st.fixed_dictionaries(
        {
            "rays": st.lists(ray, min_size=k, max_size=k),
            "pieces": st.lists(st.fixed_dictionaries({"monomials": monomials}), min_size=k, max_size=k),
        },
        optional={"construction": _json_values},
    )


_check_inputs = st.one_of(
    st.binary(max_size=200),
    st.one_of(_json_values, st.integers(2, 4).flatmap(_documents)).map(lambda value: json.dumps(value).encode()),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_check_inputs)
def test_check_is_total_on_arbitrary_input(tmp_path, capsys, data):
    path = tmp_path / "fuzz.json"
    path.write_bytes(data)
    start = time.perf_counter()
    code = main(["check", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in captured.err
    if code == 1:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert elapsed < 2.0
