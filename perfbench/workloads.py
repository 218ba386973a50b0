"""Seeded task lists for the three workloads, with the oracle for each task.

A task is one CLI command (run in-process through `supersmooth.cli.main`)
or one public library call.  `build(name, seed, draw, pkg, workdir, tiny)`
writes the task inputs under `workdir` and returns one round's task list;
the same seed and draw always give the same list.  Task sizes (rays, degree,
smoothness, n, grid points, samples per ray) follow a fixed ladder per
workload, and the seed and draw pick the content (slopes, rays, polynomials,
radii, and the numeric fixtures' samples per ray and Richardson levels), so
every draw costs about the same and run-to-run spread measures the machine
rather than the draw.

Each task's `check` returns one of
  "ok"     -- output matches the oracle, or a malformed input was rejected
              with exit 1 and exactly one `error:` line;
  "failed" -- a malformed input was rejected some other way (for example an
              uncaught exception instead of exit 1);
  "wrong"  -- a wrong answer, an exception on valid input, or a malformed
              input accepted.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable

import oracles

WORKLOADS = ("space", "verdict", "grid")

# Percentile reported as task_ms_tail: every full task list has at least 100
# tasks, so at least ten lie above it.
TAIL_PERCENTILE = 90


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    malformed: bool = False
    argv: list[str] | None = None  # for CLI tasks


@dataclass(frozen=True)
class CliResult:
    code: Any
    out: str
    err: str


def cli_task(pkg, kind, argv, check, malformed=False) -> Task:
    def run():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded as the task's outcome, judged by check
            code = f"raised {type(exc).__name__}"
        return CliResult(code, out.getvalue(), err.getvalue())

    return Task(kind, run, check, malformed, argv)


def lib_task(kind, call, check) -> Task:
    def run():
        try:
            return call()
        except Exception as exc:  # recorded as the task's outcome, judged by check
            return ("raised", type(exc).__name__, str(exc))

    def guarded(result):
        if isinstance(result, tuple) and result[:1] == ("raised",):
            return "wrong"
        return check(result)

    return Task(kind, run, guarded)


def expect_stdout(text: str) -> Callable[[CliResult], str]:
    return lambda r: "ok" if (r.code, r.out, r.err) == (0, text, "") else "wrong"


def expect_rejected(r: CliResult) -> str:
    if r.code == 0:
        return "wrong"
    lines = r.err.splitlines()
    clean = r.code == 1 and r.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
    return "ok" if clean else "failed"


# -- seeded inputs ------------------------------------------------------------

def rational(rng: random.Random, bound: int, rational_style: bool) -> Fraction:
    while True:
        value = Fraction(rng.randint(-bound, bound), rng.randint(2, 4) if rational_style else 1)
        if value:
            return value


def distinct_slopes(rng, count, bound, rational_style) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        value = rational(rng, bound, rational_style)
        if value not in out:
            out.append(value)
    return out


def slope_arg(slopes) -> str:
    # The "=" form keeps argparse from reading a leading "-" as an option.
    return "--slopes=" + ",".join(oracles.format_fraction(a) for a in slopes)


def random_rays(rng, k, collinear_pair: bool, bound=5) -> list[tuple[int, int]]:
    """k distinct primitive directions; with collinear_pair, one opposite pair."""
    rays: list[tuple[int, int]] = []
    target = k - 1 if collinear_pair else k
    while len(rays) < target:
        dx, dy = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (dx, dy) == (0, 0) or math.gcd(dx, dy) != 1:
            continue
        if any(dx * ry - dy * rx == 0 for rx, ry in rays):
            continue
        rays.append((dx, dy))
    if collinear_pair:
        dx, dy = rays[rng.randrange(len(rays))]
        rays.append((-dx, -dy))
    return rays


def random_poly(rng, max_degree, terms, bound=9) -> dict:
    p: dict = {}
    for _ in range(terms):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        p = oracles.poly_add(p, {(i, j): Fraction(rng.randint(-bound, bound))})
    return p


def write_doc(workdir, name, rays, pieces) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(oracles.spline_document(rays, pieces), handle)
    return path


def as_dicts(spline) -> list[dict]:
    return [dict(piece.terms) for piece in spline.pieces]


def ladder(*groups):
    """Concatenate (count, options) groups, each cycling through its options."""
    return [options[i % len(options)] for count, options in groups for i in range(count)]


def rungs(sizes, tiny):
    return sizes[:: max(1, len(sizes) // 3)] if tiny else sizes


# -- space: spline-space dimension and sampling --------------------------------

# (rays k, smoothness r, degree d) per `dim` task on a slope fan.
DIM_LADDER = ladder(
    (26, [(3, 0, 2), (3, 1, 3), (3, 1, 4), (3, 0, 3), (3, 2, 4), (3, 1, 2)]),
    (20, [(4, 1, 3), (4, 2, 4), (4, 2, 5), (4, 1, 4), (4, 2, 3), (4, 1, 5)]),
    (10, [(5, 2, 4), (5, 3, 5), (5, 3, 6), (5, 2, 5), (5, 2, 3)]),
    (4, [(6, 3, 5), (6, 4, 6), (6, 3, 4), (6, 4, 5)]),
)
# (rays k, collinear pair?, r, d) per general-fan `spline_space_dimension` task.
FAN_LADDER = ladder(
    (4, [(2, False, 0, 2), (2, True, 1, 3)]),
    (10, [(3, False, 0, 2), (3, True, 1, 3), (3, False, 1, 4), (3, True, 0, 3), (3, False, 2, 3)]),
    (10, [(4, False, 1, 3), (4, True, 2, 4), (4, False, 2, 5), (4, True, 1, 4), (4, False, 0, 3)]),
    (8, [(5, False, 2, 4), (5, True, 3, 5), (5, False, 3, 4), (5, True, 2, 5)]),
)
# (rays k, smoothness r, degree d) per `sample_spline_space` task.  Each task
# asks for as many samples as the space has dimensions, so the check can
# demand that they span it.
SAMPLE_LADDER = [(3, 1, 3), (3, 1, 4), (4, 2, 4), (4, 1, 4), (3, 0, 3), (3, 2, 4), (4, 1, 3), (3, 1, 3)]


def space_tasks(rng, pkg, workdir, tiny) -> list[Task]:
    tasks = []
    for index, (k, r, d) in enumerate(rungs(DIM_LADDER, tiny)):
        slopes = distinct_slopes(rng, k - 1, 9, rational_style=index % 2 == 1)
        expected = oracles.schumaker_dimension(k, k, d, r)
        argv = ["dim", "--degree", str(d), "--smoothness", str(r), slope_arg(slopes)]
        tasks.append(cli_task(pkg, "dim", argv, expect_stdout(f"{expected}\n")))

    for k, collinear, r, d in rungs(FAN_LADDER, tiny):
        rays = random_rays(rng, k, collinear)
        fan = pkg.fan.build_fan([pkg.fan.Ray(dx, dy) for dx, dy in rays])
        expected = oracles.schumaker_dimension(k, oracles.distinct_lines(rays), d, r)
        tasks.append(lib_task(
            "fan_dim",
            lambda fan=fan, d=d, r=r: pkg.dimension.spline_space_dimension(fan, d, r),
            lambda got, expected=expected: "ok" if got == expected else "wrong",
        ))

    for k, r, d in rungs(SAMPLE_LADDER, tiny):
        rays = random_rays(rng, k, collinear_pair=False)
        fan = pkg.fan.build_fan([pkg.fan.Ray(dx, dy) for dx, dy in rays])
        fan_rays = [(ray.dx, ray.dy) for ray in fan.rays]
        count = oracles.schumaker_dimension(k, k, d, r)
        seed = rng.randrange(2**31)

        def check(samples, count=count, r=r, d=d, fan_rays=fan_rays):
            # Nonzero samples of degree <= d that are C^r across every ray and
            # have full rank span S^r_d: a short or empty null-space basis
            # would give dependent or zero samples.  The sample weights are
            # random integers, so full rank holds except with negligible
            # probability, and it is fixed by the seed.
            if len(samples) != count:
                return "wrong"
            monomials = [(i, t - i) for t in range(d + 1) for i in range(t + 1)]
            vectors = []
            for spline in samples:
                pieces = as_dicts(spline)
                if [(ray.dx, ray.dy) for ray in spline.fan.rays] != fan_rays:
                    return "wrong"
                if not any(pieces) or any(i + j > d for p in pieces for i, j in p):
                    return "wrong"
                if oracles.global_order(fan_rays, pieces) < r:
                    return "wrong"
                vectors.append([p.get(mono, 0) for p in pieces for mono in monomials])
            return "ok" if oracles.rank(vectors) == count else "wrong"

        tasks.append(lib_task(
            "sample",
            lambda fan=fan, d=d, r=r, count=count, seed=seed:
                pkg.dimension.sample_spline_space(fan, d, r, count=count, seed=seed),
            check,
        ))
    return tasks


# -- verdict: construct -> check, the sharp examples, operators, bad input ------

PAIR_LADDER = [2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]  # n
HALFPLANE_LADDER = [1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8, 10]  # n
POWER_LADDER = [30, 60, 100, 140, 200]  # d of y^d
OPERATOR_LADDER = [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6]  # n


def verdict_tasks(rng, pkg, workdir, tiny) -> list[Task]:
    tasks = []
    for index, n in enumerate(rungs(PAIR_LADDER, tiny)):
        # Rational slopes only below n = 9: above it their denominators make
        # the cost swing with the seed, and those pairs set task_ms_tail.
        slopes = distinct_slopes(rng, n + 1, n + 3, rational_style=index % 2 == 1 and n < 9)
        path = os.path.join(workdir, f"counterexample{index}.json")
        rays, _ = oracles.counterexample(slopes, n)
        ordered = sorted(slopes, key=lambda a: (a < 0, a))

        def construct_check(r, path=path, n=n, rays=rays, ordered=ordered):
            if (r.code, r.out, r.err) != (0, "", "") or not os.path.isfile(path):
                return "wrong"
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
            got_rays = [(int(ray["dx"]), int(ray["dy"])) for ray in doc["rays"]]
            block = doc.get("construction", {})
            slopes_ok = block.get("slopes") == [oracles.format_fraction(a) for a in ordered]
            return "ok" if got_rays == rays and block.get("n") == n and slopes_ok else "wrong"

        tasks.append(cli_task(pkg, "construct", ["construct", "--n", str(n), slope_arg(slopes), "-o", path],
                              construct_check))
        report = oracles.report_lines(n + 2, [n - 1] * (n + 2), n - 1, n - 1, False, "not applicable")
        tasks.append(cli_task(pkg, "check", ["check", path], expect_stdout(report)))

    for index, n in enumerate(rungs(HALFPLANE_LADDER, tiny)):
        extra = distinct_slopes(rng, n, 6, rational_style=True)
        rays, pieces = oracles.halfplane(n, extra)
        path = write_doc(workdir, f"halfplane{index}.json", rays, pieces)
        per_ray = [n, n] + ["infinite"] * n
        report = oracles.report_lines(n + 2, per_ray, n, n, False, "not applicable")
        tasks.append(cli_task(pkg, "check", ["check", path], expect_stdout(report)))

    for index, d in enumerate(rungs(POWER_LADDER, tiny)):
        coeff = rational(rng, 9, rational_style=index % 2 == 1)
        path = write_doc(workdir, f"power{index}.json", [(1, 0), (-1, 0)], [{}, {(0, d): coeff}])
        report = oracles.report_lines(2, [d - 1, d - 1], d - 1, d - 1, False, "not applicable")
        tasks.append(cli_task(pkg, "check", ["check", path], expect_stdout(report)))

    for n in rungs(OPERATOR_LADDER, tiny):
        rays = random_rays(rng, n + 2, collinear_pair=False, bound=6)
        fan = pkg.fan.build_fan([pkg.fan.Ray(dx, dy) for dx, dy in rays])
        fan_rays = [(ray.dx, ray.dy) for ray in fan.rays]
        q = random_poly(rng, max_degree=6, terms=8)
        expected = oracles.directional_power(q, fan_rays[0], n)
        q_poly = pkg.poly.BiPoly(q)
        slot: dict = {}

        def expand(fan=fan, n=n, slot=slot):
            slot["expansion"] = pkg.operators.expand_power_operator(fan, n)
            return slot["expansion"]

        def expand_check(e, n=n):
            exponents = e.product.terms
            shape_ok = len(exponents) == 2**n and all(sum(x) == n for x in exponents)
            return "ok" if shape_ok else "wrong"

        tasks.append(lib_task("expand", expand, expand_check))
        others = list(fan.rays[1:])
        tasks.append(lib_task(
            "apply",
            lambda slot=slot, others=others, q_poly=q_poly:
                pkg.operators.apply_operator(slot["expansion"].product, others, q_poly),
            lambda got, expected=expected: "ok" if dict(got.terms) == expected else "wrong",
        ))

    tasks.extend(malformed_tasks(rng, pkg, workdir))
    return tasks


def malformed_tasks(rng, pkg, workdir) -> list[Task]:
    """One task per malformed-input kind; each must exit 1 with one error line."""

    def put(name, data: bytes) -> str:
        path = os.path.join(workdir, name)
        with open(path, "wb") as handle:
            handle.write(data)
        return path

    valid = oracles.spline_document([(1, 0), (-1, 0)], [{}, {(0, rng.randint(2, 9)): Fraction(1)}])
    counter_clockwise = oracles.spline_document([(1, 0), (0, 1), (-1, 0)], [{}, {}, {}])
    directory = os.path.join(workdir, "a_directory")
    os.makedirs(directory, exist_ok=True)
    repeated = rng.randint(1, 9)
    argvs = [
        ["check", put("bad_json.json", json.dumps(valid).encode()[: rng.randint(5, 30)])],
        ["check", put("unknown_field.json", json.dumps({**valid, "colour": "red"}).encode())],
        ["check", put("not_clockwise.json", json.dumps(counter_clockwise).encode())],
        ["construct", "--n", "2", f"--slopes={repeated},{repeated},{repeated + 1}"],
        ["check", put("not_utf8.json", b"\xff\xfe" + bytes(rng.randrange(128, 256) for _ in range(8)))],
        ["check", directory],
    ]
    return [cli_task(pkg, "malformed", argv, expect_rejected, malformed=True) for argv in argvs]


# -- grid: point evaluation, CSV, numeric checks -------------------------------

# (points per axis, spline): ("c", n) is a counterexample of order n, ("h", n)
# a half-plane example.  Grids stop at 49 points per axis so that a round
# stays short and a run holds many rounds; the 129-point grid is in cases.py.
GRID_LADDER = ladder(
    (10, [(9, ("c", 4)), (9, ("h", 2)), (9, ("c", 8)), (9, ("h", 5)), (9, ("c", 12))]),
    (12, [(13, ("c", 3)), (13, ("h", 3)), (13, ("c", 6)), (13, ("c", 10))]),
    (10, [(17, ("c", 5)), (17, ("h", 4)), (17, ("c", 8)), (17, ("h", 6)), (17, ("c", 3))]),
    (8, [(25, ("c", 4)), (25, ("h", 2)), (25, ("c", 6)), (25, ("h", 5))]),
    (6, [(33, ("c", 3)), (33, ("h", 3)), (33, ("c", 5))]),
    (2, [(41, ("c", 4)), (41, ("h", 4))]),
    (2, [(49, ("c", 3)), (49, ("c", 2))]),
)
FIXTURE_EXPECTATIONS = {  # corner gradient check, smoothness witness (README demos)
    "corner-quadratic": (True, False),
    "smooth-parabola": (False, True),
    "halfplane-n1": (True, False),
}
# (half-plane n, counterexample n, samples per ray, Richardson levels) per pair
# of field_rays tasks.
FIELD_LADDER = ladder((10, [(1, 2, 20, 5), (2, 3, 60, 3), (3, 3, 100, 2), (2, 4, 150, 1), (4, 4, 40, 4)]))
FIXTURE_ROUNDS = 4  # gradient and witness checks per fixture
LEMMA_TASKS = 6
# Samples per ray for the fixture and lemma tasks; the seed deals them out.
FIXTURE_SAMPLES = ladder((len(FIXTURE_EXPECTATIONS) * 2 * FIXTURE_ROUNDS + LEMMA_TASKS,
                          [9, 20, 40, 80, 120, 200, 300]))


class GridOracle:
    """Checks `sample` CSV output cell by cell against independent sectors and values."""

    def __init__(self, rays, pieces, grid_n):
        self.sectors, self.pieces, self.grid_n = oracles.Sectors(rays), pieces, grid_n

    def __call__(self, r: CliResult) -> str:
        if (r.code, r.err) != (0, ""):
            return "wrong"
        lines = r.out.splitlines()
        if lines[:1] != ["x,y,value,sector"] or len(lines) != 1 + self.grid_n**2:
            return "wrong"
        for line in lines[1:]:
            x_text, y_text, value_text, sector_text = line.split(",")
            x, y = Fraction(float(x_text)), Fraction(float(y_text))
            sector = int(sector_text)
            if x == 0 and y == 0:
                # The origin has no sector; the CLI reports -1 and piece 0.
                if sector != -1:
                    return "wrong"
                sector = 0
            elif sector not in self.sectors.candidates(x, y):
                return "wrong"
            if float(value_text) != float(oracles.poly_eval(self.pieces[sector], x, y)):
                return "wrong"
        return "ok"


def float_field(piece: dict, calls: list):
    terms = [(i, j, float(c)) for (i, j), c in piece.items()]

    def field(x, y):
        calls[0] += 1
        return sum(c * x**i * y**j for i, j, c in terms)

    return field


def counted(fn, calls: list):
    def field(*args):
        calls[0] += 1
        return fn(*args)

    return field


def config(pkg, samples, levels):
    return pkg.numcheck.NumericConfig(richardson_levels=levels, samples_per_ray=samples)


def grid_tasks(rng, pkg, workdir, tiny, field_calls) -> list[Task]:
    tasks = []
    for index, (grid_n, (shape, n)) in enumerate(rungs(GRID_LADDER, tiny)):
        if shape == "h":
            rays, pieces = oracles.halfplane(n, distinct_slopes(rng, n, 5, rational_style=True))
        else:
            rays, pieces = oracles.counterexample(distinct_slopes(rng, n + 1, 2 * n, index % 2 == 1), n)
        path = write_doc(workdir, f"grid{index}.json", rays, pieces)
        radius = rng.choice(["0.5", "1", "1.5", "2"])
        argv = ["sample", path, "--grid-n", str(grid_n), "--radius", radius]
        tasks.append(cli_task(pkg, "sample_grid", argv, GridOracle(rays, pieces, grid_n)))

    samples = list(FIXTURE_SAMPLES)
    rng.shuffle(samples)
    for _ in range(1 if tiny else FIXTURE_ROUNDS):
        for name, (gradient_passes, is_witness) in FIXTURE_EXPECTATIONS.items():
            fixture = pkg.numcheck.get_fixture(name)
            fixture = replace(fixture, f_upper=counted(fixture.f_upper, field_calls),
                              f_lower=counted(fixture.f_lower, field_calls))
            cfg = config(pkg, samples.pop(), rng.randint(1, 5))
            tasks.append(lib_task(
                "corner_gradient",
                lambda fixture=fixture, cfg=cfg: pkg.numcheck.verify_corner_gradient(fixture, cfg),
                lambda got, want=gradient_passes: "ok" if got.passed == want else "wrong",
            ))
            cfg = config(pkg, samples.pop(), rng.randint(1, 5))
            tasks.append(lib_task(
                "witness",
                lambda fixture=fixture, cfg=cfg: pkg.numcheck.corner_witness_check(fixture.f_upper, fixture, cfg),
                lambda got, want=is_witness: "ok" if got.is_witness == want else "wrong",
            ))
    lemma = pkg.numcheck.get_fixture("lemma-xy")
    f, g = counted(lemma.f, field_calls), counted(lemma.g, field_calls)
    for _ in range(1 if tiny else LEMMA_TASKS):
        cfg = config(pkg, samples.pop(), rng.randint(1, 5))
        tasks.append(lib_task(
            "ray_lemma",
            lambda cfg=cfg: pkg.numcheck.verify_ray_lemma(f, g, lemma.ray, cfg),
            lambda got: "ok" if got.passed else "wrong",
        ))

    # Continuous splines glue along every ray, so the ray lemma must pass on each.
    for halfplane_n, counter_n, samples_per_ray, levels in rungs(FIELD_LADDER, tiny):
        for rays, pieces in (
            oracles.halfplane(halfplane_n, distinct_slopes(rng, halfplane_n, 4, rational_style=True)),
            oracles.counterexample(distinct_slopes(rng, counter_n + 1, 4, rational_style=False), counter_n),
        ):
            fan = pkg.fan.build_fan([pkg.fan.Ray(dx, dy) for dx, dy in rays])
            field = pkg.numcheck.PiecewiseField(fan, tuple(float_field(p, field_calls) for p in pieces))
            cfg = config(pkg, samples_per_ray, levels)
            tasks.append(lib_task(
                "field_rays",
                lambda field=field, cfg=cfg: pkg.numcheck.verify_field_rays(field, cfg),
                lambda got, k=len(rays): "ok" if len(got) == k and all(rep.passed for rep in got) else "wrong",
            ))
    return tasks


def build(name, seed, draw, pkg, workdir, tiny=False, field_calls=None) -> list[Task]:
    rng = random.Random(f"{name}:{seed}:{draw}")
    if name == "space":
        return space_tasks(rng, pkg, workdir, tiny)
    if name == "verdict":
        return verdict_tasks(rng, pkg, workdir, tiny)
    if name == "grid":
        return grid_tasks(rng, pkg, workdir, tiny, field_calls if field_calls is not None else [0])
    raise ValueError(f"unknown workload {name!r}")
