import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from supersmooth import (
    build_counterexample,
    encode_counterexample,
    format_rational,
    render_report,
    supersmoothness_verdict,
)
from supersmooth import cli, construct
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


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """`python -m supersmooth ARGS` in a fresh interpreter, on the imported package's source tree."""
    source = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "supersmooth", *args], capture_output=True, text=True, env=env, timeout=120)


def test_the_module_entry_point_runs_the_cli():
    done = _run_module("dim", "--degree", "2", "--smoothness", "1", "--slopes", "1,2,3")
    assert (done.returncode, done.stdout, done.stderr) == (0, "7\n", "")
    bare = _run_module()
    assert bare.returncode == 2 and bare.stdout == "" and bare.stderr.startswith("usage:")


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


_GLUING_DEMO = """\
fixture: {name}
continuity gap: 0.000e+00
gradient upper: ({upper})
gradient lower: (0.000000, 0.000000)
gradient gap: {gap}
corner gradient check: {check}
witness candidate vanishes on curve: yes
witness gradient norm at corner: {gap}
smoothness witness: {witness}
"""
_NUMERIC_DEMOS = {
    "corner-quadratic": _GLUING_DEMO.format(
        name="corner-quadratic", upper="0.000000, 0.000000", gap="0.000e+00", check="pass", witness="no"),
    "smooth-parabola": _GLUING_DEMO.format(
        name="smooth-parabola", upper="0.000000, 1.000000", gap="1.000e+00", check="fail", witness="yes"),
    "halfplane-n1": _GLUING_DEMO.format(
        name="halfplane-n1", upper="0.000000, 0.000000", gap="0.000e+00", check="pass", witness="no"),
    "lemma-xy": (
        "fixture: lemma-xy\n"
        "max value gap: 0.000e+00\n"
        "max ray-derivative gap: 0.000e+00\n"
        "ray lemma check: pass\n"
    ),
}


def test_demo_numeric_fixtures(capsys):
    for name, expected in _NUMERIC_DEMOS.items():
        assert main(["demo", name]) == 0
        assert capsys.readouterr() == (expected, ""), name


def test_demo_unknown_name_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["demo", "nope"])
    assert exc.value.code == 2


# The demos that read each optional argument, with a value to give it.
_DEMO_OPTION_USE = {
    "n": (("halfplane", "counterexample"), "1"),
    "slopes": (("counterexample",), "1,2"),
    "seed": (("farin",), "0"),
}


@pytest.mark.parametrize(
    "name, option",
    [
        (name, option)
        for option, (readers, _) in _DEMO_OPTION_USE.items()
        for name in cli.SPLINE_DEMOS + cli.FIXTURE_DEMOS
        if name not in readers
    ],
)
def test_demo_rejects_an_option_it_does_not_read(name, option, capsys):
    # even at the value the demo would otherwise use
    value = _DEMO_OPTION_USE[option][1]
    assert main(["demo", name, f"--{option}", value]) == 1
    assert capsys.readouterr() == ("", f"error: demo {name} does not read --{option}\n")


@pytest.mark.parametrize(
    "argv, out",
    [
        (["dim", "--degree", "2", "--smoothness", "1", "--slopes=-1,2"], "6\n"),
        (["construct", "--n", "1", "--slopes=-1/2,3"], None),
    ],
)
def test_slope_list_starting_with_a_negative_slope_in_the_equals_form(argv, out, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if out is not None:
        assert captured.out == out


@pytest.mark.parametrize("command", ["construct", "dim", "demo"])
def test_slopes_help_names_the_equals_form(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--slopes=-1,2" in capsys.readouterr().out


def _three_ray_document(first: dict, second: dict, third: dict) -> str:
    rays = [{"dx": "1", "dy": "0"}, {"dx": "0", "dy": "-1"}, {"dx": "-1", "dy": "1"}]
    return json.dumps({"rays": rays, "pieces": [{"monomials": m} for m in (first, second, third)]})


def test_unreduced_coefficients_check_and_sample_like_the_reduced_document(tmp_path, capsys):
    unreduced = tmp_path / "unreduced.json"
    unreduced.write_text(_three_ray_document(
        {"0,2": "2/4", "1,1": "-6/3", "2,0": "0/7", "0,0": "-0"},
        {"0,2": "2/4", "1,1": "-6/3", "00,3": "-0/5", "3,0": "4/6"},
        {"0,2": "10/20", "1,1": "-12/6", "0,0": "-0"},
    ))
    reduced = tmp_path / "reduced.json"
    reduced.write_text(_three_ray_document(
        {"0,2": "1/2", "1,1": "-2"},
        {"0,2": "1/2", "1,1": "-2", "3,0": "2/3"},
        {"0,2": "1/2", "1,1": "-2"},
    ))
    outputs = []
    for path in (unreduced, reduced):
        assert main(["check", str(path)]) == 0
        report = capsys.readouterr().out
        assert main(["sample", "--grid-n", "9", "--radius", "1.5", str(path)]) == 0
        outputs.append((report, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert "ray 1: order 2" in outputs[0][0]


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


@pytest.mark.parametrize(
    "argv, code",
    [(["dim", "--slopes", "1", "--degree", "2", "--smoothness", "1"], 0), (["check", "."], 1)],
)
def test_entry_exits_with_the_code_of_main(monkeypatch, capsys, argv, code):
    monkeypatch.setattr("sys.argv", ["supersmooth", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code


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


@pytest.mark.parametrize("grid_n", ["4", "5", "33"])
def test_sample_rejects_radius_too_small_for_distinct_coordinates(tmp_path, capsys, grid_n):
    # At 5e-324 the coordinates round onto each other: [-5e-324, 0.0, 0.0, 5e-324] for 4 points
    spline_path = tmp_path / "c.json"
    main(["construct", "--n", "1", "--slopes", "1,2", "-o", str(spline_path)])
    capsys.readouterr()
    assert main(["sample", str(spline_path), "--grid-n", grid_n, "--radius", "5e-324"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: radius must be large enough for distinct grid coordinates\n"


_PAIR = '{"dx": "1", "dy": "0"}, {"dx": "-1", "dy": "0"}'


@pytest.mark.parametrize(
    "document, message",
    [
        ('{"rays": {}, "pieces": []}', "rays and pieces must be arrays"),
        ('{"rays": [{"dx": "1", "dy": "0"}], "pieces": [{"monomials": {}}]}',
         "a spline document needs at least 2 rays"),
        ('{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}, {"monomials": []}]}',
         "pieces[1].monomials: expected an object"),
        ('{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}, {"monomials": {"0,2": "1", "00,2": "1"}}]}',
         "pieces[1].monomials: duplicate monomial '00,2'"),
        # json.loads alone keeps the last value of a repeated key: 5*y^2, or a zero ray
        ('{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}, {"monomials": {"0,2": "1", "0,2": "5"}}]}',
         "duplicate key '0,2' in a JSON object"),
        ('{"rays": [{"dx": "1", "dy": "0", "dx": "0"}, {"dx": "-1", "dy": "0"}], '
         '"pieces": [{"monomials": {}}, {"monomials": {"0,2": "1"}}]}',
         "duplicate key 'dx' in a JSON object"),
        ('{"rays": [{"dx": "0", "dy": "0"}, {"dx": "-1", "dy": "0"}], '
         '"pieces": [{"monomials": {}}, {"monomials": {}}]}',
         "rays[0]: zero direction"),
        ('{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}, {"monomials": {}}], "construction": null}',
         "construction: expected an object"),
    ],
)
def test_check_reports_each_document_shape_error(tmp_path, capsys, document, message):
    path = tmp_path / "doc.json"
    path.write_text(document)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--degree", "240", "--smoothness", "0", "--slopes", "1,2"],
        ["dim", "--degree", str(cli.MAX_DIM_DEGREE + 1), "--smoothness", "0", "--slopes", "1,2"],
        ["dim", "--degree", "2", "--smoothness", str(cli.MAX_DIM_DEGREE + 1), "--slopes", "1,2"],
        ["construct", "--n", str(cli.MAX_N + 1), "--slopes", ",".join(str(a) for a in range(1, cli.MAX_N + 3))],
        ["demo", "halfplane", "--n", str(cli.MAX_N + 1)],
        ["demo", "counterexample", "--n", str(cli.MAX_N + 1)],
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


def test_dim_cost_does_not_grow_with_the_slope_list(capsys):
    slopes = ",".join(map(str, range(1, 1200)))
    assert len(slopes) >= 4096
    start = time.perf_counter()
    assert main(["dim", "--degree", str(cli.MAX_DIM_DEGREE), "--smoothness", "21", "--slopes", slopes]) == 0
    elapsed = time.perf_counter() - start
    # 1199 slope lines plus the x-axis
    assert capsys.readouterr().out == f"{schumaker_dimension(1200, 1200, cli.MAX_DIM_DEGREE, 21)}\n"
    assert elapsed < 0.5


def test_caps_admit_the_documented_sizes():
    # dim degrees, orders n and grid sizes used by the tests, README and benchmark
    assert cli.MAX_DIM_DEGREE > 12 and cli.MAX_N > 16 and cli.MAX_GRID_N > 129


def _random_slopes(seed: int, count: int, bits: int) -> list[Fraction]:
    """`count` distinct nonzero slopes p/q with |p| and q below 2^bits."""
    rng, slopes = Random(seed), set()
    while len(slopes) < count:
        slopes.add(Fraction(rng.choice((-1, 1)) * (rng.getrandbits(bits) or 1), rng.getrandbits(bits) or 1))
    return sorted(slopes)


def _slopes_option(slopes) -> str:
    return "--slopes=" + ",".join(format_rational(a) for a in slopes)


def _longest_integer(text: str) -> int:
    return max(map(len, re.findall(r"[0-9]+", text)))


@pytest.mark.parametrize("bits", [20, 40, 60])
@pytest.mark.parametrize("command", [["construct"], ["demo", "counterexample"]], ids=["construct", "demo"])
def test_slopes_above_the_digit_bound_never_reach_the_build(monkeypatch, capsys, command, bits):
    # 65 random p/q slopes at n = 64: the parent spent 1.9 s (20 bits) to
    # 18.9 s (60 bits) building before the output failed to print.
    def build(*args):
        raise AssertionError("build_counterexample was called")

    monkeypatch.setattr(cli, "build_counterexample", build)
    slopes = _random_slopes(bits, cli.MAX_N + 1, bits)
    assert construct.counterexample_digits(slopes, cli.MAX_N) > cli.MAX_CONSTRUCT_DIGITS
    assert main([*command, "--n", str(cli.MAX_N), _slopes_option(slopes)]) == 1
    assert "the digit bound of --slopes" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["construct"], ["demo", "counterexample"]], ids=["construct", "demo"])
def test_slopes_bad_twice_report_the_slope_error(monkeypatch, capsys, command):
    # above the digit bound and with a repeated slope: the builder's error wins
    monkeypatch.setattr(cli, "build_counterexample", None)
    slopes = _random_slopes(5, cli.MAX_N + 1, 60)
    slopes[-1] = slopes[0]
    assert main([*command, "--n", str(cli.MAX_N), _slopes_option(slopes)]) == 1
    assert capsys.readouterr().err == "error: slopes must be pairwise distinct\n"


# (n, slopes) accepted by the digit bound: integers up to n = MAX_N, a shared
# denominator, and random p/q close to the limit.
_DIGIT_LADDER = [
    *((n, list(range(1, n + 2))) for n in (1, 2, 8, 16, 32, 48, 64)),
    *((n, [Fraction(k, 1000) for k in range(1, n + 2)]) for n in (4, 16, 32)),
    (4, _random_slopes(4, 5, 700)),
    (8, _random_slopes(8, 9, 190)),
    (16, _random_slopes(16, 17, 50)),
    (32, _random_slopes(32, 33, 12)),
]


@pytest.mark.parametrize("n, slopes", _DIGIT_LADDER, ids=[f"n{n}-{i}" for i, (n, _) in enumerate(_DIGIT_LADDER)])
def test_the_digit_bound_covers_every_printed_integer(capsys, n, slopes):
    bound = construct.counterexample_digits(slopes, n)
    assert bound <= cli.MAX_CONSTRUCT_DIGITS
    assert main(["construct", "--n", str(n), _slopes_option(slopes)]) == 0
    assert _longest_integer(capsys.readouterr().out) <= bound


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.fractions(max_denominator=10**9).filter(bool), min_size=n + 1, max_size=n + 1))
))
def test_the_digit_bound_covers_every_integer_of_small_counterexamples(case):
    n, slopes = case
    text = encode_counterexample(build_counterexample(sorted(slopes), n))
    assert _longest_integer(text) <= construct.counterexample_digits(sorted(slopes), n)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "halfplane", "--n", "-1"],
        ["demo", "twopiece", "--n", str(cli.MAX_N + 1)],
        ["demo", "corner-quadratic", "--n", str(cli.MAX_N + 1)],
        ["demo", "counterexample", "--n", "0"],
        ["demo", "counterexample", "--n", "-1"],
        ["demo", "counterexample", "--n", "2", "--slopes", "1,2"],
        ["demo", "counterexample", "--n", "2", "--slopes", "1,1,2"],
        ["demo", "counterexample", "--n", "2", "--slopes", "0,1,2"],
    ],
)
def test_failing_demo_prints_nothing_on_stdout(argv, capsys):
    # Orders above the cap and numbers too long to print are checked the same
    # way by the tests above.
    assert main(argv) == 1
    _one_error_line(capsys)


def test_dim_negative_degree_exits_1(capsys):
    assert main(["dim", "--degree=-3", "--smoothness", "0", "--slopes", "1,2"]) == 1
    assert capsys.readouterr().err == "error: degree must be nonnegative\n"


_options = st.integers(-100, 40)
_integer_argvs = st.one_of(
    st.tuples(_options, _options).map(
        lambda dr: ["dim", f"--degree={dr[0]}", f"--smoothness={dr[1]}", "--slopes", "1,-1/2"]
    ),
    st.integers(-100, 0).map(lambda n: ["construct", f"--n={n}", "--slopes", "1,2"]),
    st.tuples(st.sampled_from(cli.SPLINE_DEMOS + cli.FIXTURE_DEMOS), st.integers(-100, 0)).map(
        lambda name_n: ["demo", name_n[0], f"--n={name_n[1]}"]
    ),
    st.integers(-100, 1).map(lambda grid_n: ["sample", "DOC", f"--grid-n={grid_n}"]),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_integer_argvs)
def test_integer_options_are_total(tmp_path, capsys, argv):
    document = tmp_path / "c.json"
    document.write_text(_axis_document("0,3"))
    code, out, err = _outcome([str(document) if arg == "DOC" else arg for arg in argv], capsys)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.count("error:") == 1
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


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
