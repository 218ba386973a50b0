"""Acceptance suite: one test per criterion, exact (tolerance 0) wherever the
arithmetic is rational, pinned numeric tolerances elsewhere.  Each test prints
a single pass line; run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
from fractions import Fraction
from random import Random

import pytest

from supersmooth import (
    NumericConfig,
    Ray,
    build_counterexample,
    build_fan,
    build_halfplane_example,
    corner_witness_check,
    directional_derivative,
    get_fixture,
    global_smoothness_order,
    linear_form_power,
    origin_smoothness_order,
    render_report,
    sample_spline_space,
    smoothness_order_of_difference,
    spline_space_dimension,
    supersmoothness_verdict,
    verify_corner_gradient,
    verify_ray_lemma,
)
from supersmooth.cli import main
from supersmooth.operators import apply_operator, expand_power_operator
from helpers import (
    line_divisibility_order,
    random_bipoly,
    random_collinear_free_fan,
    random_slope_set,
)


def _report(index: int, message: str) -> None:
    print(f"[acceptance {index}] PASS - {message}")


def test_criterion_1_counterexample_sharpness():
    rng = Random(1001)
    checked = 0
    for n in range(1, 6):
        for _ in range(5):
            spec = build_counterexample(random_slope_set(rng, n + 1), n)
            assert global_smoothness_order(spec.spline) == n - 1
            assert origin_smoothness_order(spec.spline) == n - 1
            checked += 1
    _report(1, f"{checked} random counterexamples are exactly C^(n-1) globally and at 0, n=1..5")


def test_criterion_2_vertex_gain_for_smooth_splines():
    rng = Random(1002)
    for n in (1, 2, 3):
        fan = random_collinear_free_fan(rng, n + 2)
        dim = spline_space_dimension(fan, n + 2, n)
        assert dim >= math.comb(n + 4, 2) + 1  # strictly beyond global polynomials
        samples = sample_spline_space(fan, n + 2, n, count=20, seed=n)
        assert len(samples) == 20
        for spline in samples:
            assert origin_smoothness_order(spline) >= n + 1
    _report(2, "C^n splines of degree n+2 over n+2 generic rays gain an order at 0, n=1..3, 20 samples each")


def test_criterion_3_collinearity_blocks_the_gain():
    for n in range(0, 5):
        spline = build_halfplane_example(n)
        report = supersmoothness_verdict(spline)
        assert report.global_order == n
        assert report.origin_order == n
        assert not spline.fan.collinear_free
        assert not report.theorem_applicable
    _report(3, "half-plane examples are exactly C^n with no vertex gain, n=0..4")


def test_criterion_4_power_operator_identity():
    rng = Random(1004)
    cases = 0
    for n in (1, 2, 3, 4):
        for _ in range(3):
            fan = random_collinear_free_fan(rng, n + 2)
            expansion = expand_power_operator(fan, n)
            others = list(fan.rays[1:])
            for _ in range(20):
                q = random_bipoly(rng, max_degree=6, terms=7)
                direct = q
                for _ in range(n):
                    direct = directional_derivative(direct, fan.rays[0])
                assert apply_operator(expansion.product, others, q) == direct
                split = directional_derivative(
                    apply_operator(expansion.lead_cofactor, others, q), fan.rays[1]
                )
                cross = q
                for ray in fan.rays[2:]:
                    cross = directional_derivative(cross, ray)
                assert split + cross.scale(expansion.cross_coefficient) == direct
                cases += 1
    _report(4, f"{cases} exact matches of the n-fold derivative with both operator forms, n=1..4")


def test_criterion_5_dimension_checks():
    three = build_fan([Ray(1, 0), Ray(0, -1), Ray(-1, 1)])
    four = build_fan([Ray(1, 0), Ray(1, -1), Ray(-1, -1), Ray(-1, 2)])
    assert spline_space_dimension(three, 1, 0) == 4
    assert spline_space_dimension(three, 2, 1) == 6
    assert spline_space_dimension(four, 2, 1) == 7
    rng = Random(1005)
    for n in range(1, 6):
        fan = random_collinear_free_fan(rng, n + 2)
        assert spline_space_dimension(fan, n, n - 1) > math.comb(n + 2, 2)
    _report(5, "dimensions 4/6/7 as expected and dim S_n^(n-1) > C(n+2,2) for n=1..5")


def test_criterion_6_equivalence_oracle():
    rng = Random(1006)
    for _ in range(100):
        slope = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))
        diff = linear_form_power(slope, rng.randint(0, 3)) * random_bipoly(rng, max_degree=3, terms=4)
        ray = Ray(1, -slope) if slope > 0 else Ray(-1, slope)
        assert smoothness_order_of_difference(diff, ray) == line_divisibility_order(diff, slope)
    _report(6, "100 random differences: derivative-restriction order == divisibility order")


def test_criterion_7_numeric_curve_gluing_suite():
    cfg = NumericConfig()
    corner = get_fixture("corner-quadratic")
    corner_report = verify_corner_gradient(corner, cfg)
    assert corner_report.passed and corner_report.grad_gap <= 1e-6

    parabola = get_fixture("smooth-parabola")
    parabola_report = verify_corner_gradient(parabola, cfg)
    assert not parabola_report.passed
    assert 0.9 <= parabola_report.grad_gap <= 1.1

    lemma = get_fixture("lemma-xy")
    assert verify_ray_lemma(lemma.f, lemma.g, lemma.ray, cfg).passed
    halfplane = get_fixture("halfplane-n1")
    assert verify_corner_gradient(halfplane, cfg).passed

    assert corner_witness_check(parabola.f_upper, parabola, cfg).is_witness
    assert not corner_witness_check(corner.f_upper, corner, cfg).is_witness
    _report(7, "corner fixture passes at 1e-6, smooth-curve control fails with gap ~1, witnesses classified")


def test_criterion_8_cli_round_trip(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["construct", "--n", "2", "--slopes", "1,2,3", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", str(path)]) == 0
    cli_text = capsys.readouterr().out
    in_memory = render_report(supersmoothness_verdict(build_counterexample([1, 2, 3], 2).spline))
    assert cli_text == in_memory

    assert main(["construct", "--n", "2", "--slopes", "1,1,2"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "2"])
    assert exc.value.code == 2
    _report(8, "construct -> encode -> decode -> check reproduces the in-memory report byte for byte")
