"""Command-line front end.

Subcommands: construct (build a counterexample spline as JSON), check
(smoothness report for a spline file), dim (spline-space dimension over a
slope fan), demo (built-in examples and numeric fixtures), sample (CSV grid
of a spline file).  Exit codes: 0 success, 1 domain error or unreadable
input file, 2 usage error.

Each argument that sizes exact or grid work has a constant cap, as
`serialize.MAX_DEGREE` caps documents, so a short command line cannot buy
unbounded CPU: MAX_DIM_DEGREE for `dim --degree` and `--smoothness`,
MAX_N for `construct --n` and `demo --n`, MAX_GRID_N for `sample --grid-n`.
The counterexample of `construct` and `demo counterexample` is refused before
it is built when `construct.counterexample_digits`, its bound on the digits of
every integer the counterexample holds, is above MAX_CONSTRUCT_DIGITS, the
default `sys.get_int_max_str_digits()`; slopes the builder refuses get its
error from that bound already.
`dim` reads the dimension off a closed form, so its cost does not depend on
the slopes; `check` time still grows with the size of the document, and
`sample` time with grid_n^2 Horner steps over each row polynomial's nonzero
x-terms, none where a piece is constant along the row (the sectors come
from the order in which each row crosses the rays, with at most 4 lookups
a grid).  A value above its cap is a domain error.

Importing this module loads the exact modules its commands run and
binds their entry points here (`perfbench/spans.py` patches these
bindings); the float toolkit `numcheck` is imported by `demo <fixture>`
when it runs, and `operators` is not imported at all.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .construct import (
    build_counterexample,
    build_halfplane_example,
    counterexample_digits,
    fan_from_slopes,
)
from .dimension import sample_spline_space, spline_space_dimension
from .errors import DomainError
from .fan import Ray, build_fan
from .poly import BiPoly
from .rational import format_rational, parse_rational
from .serialize import (
    decode_spline,
    encode_counterexample,
    render_grid_csv,
    sample_grid,
)
from .spline import PiecewisePoly, render_report, supersmoothness_verdict

MAX_DIM_DEGREE = 32
MAX_N = 64
MAX_GRID_N = 150
MAX_CONSTRUCT_DIGITS = 4300

SPLINE_DEMOS = ("farin", "halfplane", "counterexample", "twopiece")
# The names of `numcheck.FIXTURES`, spelled out so that parsing a command
# does not import the float toolkit; only `demo <fixture>` loads it.
FIXTURE_DEMOS = ("corner-quadratic", "smooth-parabola", "halfplane-n1", "lemma-xy")
# The demos that read each optional `demo` argument; the others reject it.
_DEMO_OPTION_READERS = {"n": ("halfplane", "counterexample"), "slopes": ("counterexample",), "seed": ("farin",)}
_NEGATIVE_SLOPES = "; a list that starts with a negative slope needs the = form, --slopes=-1,2"


def _slopes_arg(text: str) -> list[Fraction]:
    try:
        return [parse_rational(part.strip()) for part in text.split(",")]
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_cap(option: str, value: int, cap: int) -> None:
    if value > cap:
        raise DomainError(f"{option} {value} is above the limit of {cap}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="supersmooth",
        description="Exact smoothness analysis of piecewise polynomials over fans of rays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build the sharp counterexample spline")
    p_construct.add_argument("--n", type=int, required=True, help=f"smoothness order n (1 to {MAX_N})")
    p_construct.add_argument("--slopes", type=_slopes_arg, required=True,
                             help="n+1 comma-separated nonzero rational slopes" + _NEGATIVE_SLOPES)
    p_construct.add_argument("-o", "--output", help="write JSON here instead of stdout")

    p_check = sub.add_parser("check", help="smoothness report for a spline JSON file")
    p_check.add_argument("file", help="spline JSON file")

    p_dim = sub.add_parser("dim", help="dimension of a smooth spline space over a slope fan")
    p_dim.add_argument("--degree", type=int, required=True, help=f"at most {MAX_DIM_DEGREE}")
    p_dim.add_argument("--smoothness", type=int, required=True, help=f"at most {MAX_DIM_DEGREE}")
    p_dim.add_argument("--slopes", type=_slopes_arg, required=True,
                       help="slopes of the gluing lines besides the x-axis" + _NEGATIVE_SLOPES)

    p_demo = sub.add_parser("demo", help="run a named demo or numeric fixture")
    p_demo.add_argument("name", choices=SPLINE_DEMOS + FIXTURE_DEMOS)
    p_demo.add_argument("--n", type=int, help=f"order for halfplane/counterexample (default 1, at most {MAX_N})")
    p_demo.add_argument("--slopes", type=_slopes_arg,
                        help="override slopes for the counterexample demo" + _NEGATIVE_SLOPES)
    p_demo.add_argument("--seed", type=int, help="seed for the farin demo (default 0)")

    p_sample = sub.add_parser("sample", help="CSV grid sample of a spline JSON file")
    p_sample.add_argument("file", help="spline JSON file")
    p_sample.add_argument("--grid-n", type=int, default=33, help=f"points per axis (2 to {MAX_GRID_N})")
    p_sample.add_argument("--radius", type=float, default=1.0, help="half-width of the grid")
    p_sample.add_argument("-o", "--output", help="write CSV here instead of stdout")
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_construct(args) -> int:
    _check_cap("--n", args.n, MAX_N)
    _check_cap("the digit bound of --slopes", counterexample_digits(args.slopes, args.n), MAX_CONSTRUCT_DIGITS)
    spec = build_counterexample(args.slopes, args.n)
    _emit(encode_counterexample(spec), args.output)
    return 0


def _cmd_check(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        spline = decode_spline(handle.read())
    report = supersmoothness_verdict(spline)
    sys.stdout.write(render_report(report))
    return 0


def _cmd_dim(args) -> int:
    _check_cap("--degree", args.degree, MAX_DIM_DEGREE)
    _check_cap("--smoothness", args.smoothness, MAX_DIM_DEGREE)
    fan = fan_from_slopes(args.slopes)
    print(spline_space_dimension(fan, args.degree, args.smoothness))
    return 0


def _demo_spline(name: str, n: int, slopes, seed: int) -> PiecewisePoly:
    if name == "farin":
        fan = build_fan([Ray(1, 0), Ray(0, -1), Ray(-1, 1)])
        sample = sample_spline_space(fan, degree=3, smoothness=1, count=1, seed=seed)[0]
        print(f"three-sector fan, random C^1 cubic spline (seed {seed})")
        return sample
    if name == "halfplane":
        spline = build_halfplane_example(n)
        print(f"half-plane example, n={n}")
        return spline
    if name == "counterexample":
        slopes = slopes if slopes is not None else list(range(1, n + 2))
        _check_cap("the digit bound of --slopes", counterexample_digits(slopes, n), MAX_CONSTRUCT_DIGITS)
        spec = build_counterexample(slopes, n)
        slope_text = ",".join(format_rational(a) for a in spec.slopes)
        coeff_text = ",".join(format_rational(c) for c in spec.coeffs)
        print(f"counterexample n={spec.n}: slopes {slope_text}; coeffs {coeff_text}")
        return spec.spline
    # twopiece: the order-0 case; constant pieces 0 and 1 cannot join continuously.
    fan = build_fan([Ray(1, 0), Ray(0, 1)])
    print("two constant pieces 0 and 1")
    return PiecewisePoly(fan=fan, pieces=(BiPoly.zero(), BiPoly.constant(1)))


def _demo_fixture(name: str) -> None:
    from . import numcheck

    cfg = numcheck.NumericConfig()
    fixture = numcheck.get_fixture(name)
    print(f"fixture: {name}")
    if isinstance(fixture, numcheck.RayLemmaFixture):
        report = numcheck.verify_ray_lemma(fixture.f, fixture.g, fixture.ray, cfg)
        print(f"max value gap: {report.max_value_gap:.3e}")
        print(f"max ray-derivative gap: {report.max_dirderiv_gap:.3e}")
        print(f"ray lemma check: {'pass' if report.passed else 'fail'}")
        return
    gradient = numcheck.verify_corner_gradient(fixture, cfg)
    print(f"continuity gap: {gradient.continuity_gap:.3e}")
    print(f"gradient upper: ({gradient.grad_upper[0]:.6f}, {gradient.grad_upper[1]:.6f})")
    print(f"gradient lower: ({gradient.grad_lower[0]:.6f}, {gradient.grad_lower[1]:.6f})")
    print(f"gradient gap: {gradient.grad_gap:.3e}")
    print(f"corner gradient check: {'pass' if gradient.passed else 'fail'}")
    witness = numcheck.corner_witness_check(fixture.f_upper, fixture, cfg)
    print(f"witness candidate vanishes on curve: {'yes' if witness.vanishes_on_curve else 'no'}")
    print(f"witness gradient norm at corner: {witness.grad_norm_at_p:.3e}")
    print(f"smoothness witness: {'yes' if witness.is_witness else 'no'}")


def _cmd_demo(args) -> int:
    for option, readers in _DEMO_OPTION_READERS.items():
        if getattr(args, option) is not None and args.name not in readers:
            raise DomainError(f"demo {args.name} does not read --{option}")
    n = 1 if args.n is None else args.n
    _check_cap("--n", n, MAX_N)
    if args.name in FIXTURE_DEMOS:
        _demo_fixture(args.name)
        return 0
    spline = _demo_spline(args.name, n, args.slopes, 0 if args.seed is None else args.seed)
    report = supersmoothness_verdict(spline)
    sys.stdout.write(render_report(report))
    return 0


def _cmd_sample(args) -> int:
    _check_cap("--grid-n", args.grid_n, MAX_GRID_N)
    with open(args.file, "r", encoding="utf-8") as handle:
        spline = decode_spline(handle.read())
    rows = sample_grid(spline, args.grid_n, args.radius)
    _emit(render_grid_csv(rows), args.output)
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "check": _cmd_check,
    "dim": _cmd_dim,
    "demo": _cmd_demo,
    "sample": _cmd_sample,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
