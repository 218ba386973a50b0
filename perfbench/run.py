"""Benchmark runner for supersmooth.

    python3 perfbench/run.py --workload {space,verdict,grid} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the repository root; the package is imported from ./src only.  The
run is a sequence of rounds, one client in a closed loop, until S seconds
have passed.  Each round runs a task list of its own: set-up draws it from
the workload's fixed size ladder with an rng seeded by (workload, seed,
round), so task sizes are the same in every round while the inputs differ,
and a cache of results across calls cannot make a later round faster than
a user with new inputs would see.  After each round, outside the timed
region, its outputs are checked against independent oracles and then
dropped with its input files.  peak_rss_mb is read after the last round,
before its checks.

Timing.  The machine is shared, and other tenants slow this CPU-bound code
by up to 2x for seconds to minutes at a time, which no estimator within one
run can remove.  So every time is normalised by a probe: a fixed
stdlib-only loop of Fraction arithmetic and dict updates, timed on both
clocks between consecutive tasks, whose duration tracks the neighbours'
load.  A task's wall time t is reported as t * REFERENCE_PROBE_S / (probe
wall time), with the mean of the scales measured just before and just after
the task, i.e. in seconds on a core where the probe takes
REFERENCE_PROBE_S; its CPU time is scaled by the probe's CPU time in the
same way.  Each task's latency is the median of its normalised times over
the run's rounds (the task at one position of the list has the same size in
every round); wall_s and cpu_s sum those over the task list, and the
task_ms_* percentiles are taken over them.  Set-up (importing
supersmooth.cli in a fresh interpreter, generating the round's inputs and
writing the input files) is normalised the same way, and its median over
the run, which holds at least SETUP_REPEATS set-ups, is reported as
setup_s.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the first traced round
(round 1, whose inputs depend on the seed alone, so its counts repeat
exactly), plus trace.overhead_ratio (traced over untraced normalised task
times).  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 15
REFERENCE_PROBE_S = 100e-6

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import supersmooth.cli; print(time.perf_counter() - t); "
    "print(supersmooth.__file__)"
)


def import_package():
    """Import supersmooth from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    import supersmooth
    import supersmooth.cli  # noqa: F401  (the package does not import its CLI)

    if os.path.dirname(os.path.abspath(supersmooth.__file__)) != os.path.join(SRC, "supersmooth"):
        raise ImportError(f"supersmooth imported from {supersmooth.__file__}, not {SRC}")
    return supersmooth


def timed_import() -> float:
    """Seconds to import supersmooth.cli in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    seconds, origin = probe.stdout.split("\n")[:2]
    if not os.path.abspath(origin).startswith(SRC + os.sep):
        raise ImportError(f"probe imported supersmooth from {origin}")
    return float(seconds)


def percentile(values, p) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _probe():
    terms = {}
    total = Fraction(0)
    for i in range(1, 25):
        total += Fraction(i, i + 7) * Fraction(3, 7)
        terms[(i, i % 5)] = total
    return terms


def speed_scale() -> tuple[float, float]:
    """REFERENCE_PROBE_S over the probe's wall and CPU time now (the faster of two runs)."""
    wall = cpu = math.inf
    for _ in range(2):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _probe()
        cpu = min(cpu, time.process_time() - cpu0)
        wall = min(wall, time.perf_counter() - wall0)
    return REFERENCE_PROBE_S / wall, REFERENCE_PROBE_S / cpu


def run_round(tasks, tracer=None):
    """Run every task once.

    Returns (round wall, per-task normalised wall, per-task normalised cpu,
    outcomes); the round wall is raw, like the spans of a traced round.
    """
    walls, cpus, outcomes = [], [], []
    gc.collect()
    start = time.perf_counter()
    before = speed_scale()
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = index
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outcome = task.run()
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        after = speed_scale()
        walls.append(wall * (before[0] + after[0]) / 2)
        cpus.append(cpu * (before[1] + after[1]) / 2)
        outcomes.append(outcome)
        before = after
    return time.perf_counter() - start, walls, cpus, outcomes


def typical(rounds, field: int) -> list[float]:
    """Per-task median of walls (field 1) or cpus (field 2) over rounds."""
    return [statistics.median(values) for values in zip(*(r[field] for r in rounds))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="reduced task list for the self-test")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    try:
        pkg = import_package()
    except ImportError as exc:
        print(f"error: cannot import supersmooth from {SRC}: {exc}", file=sys.stderr)
        return 1

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    setups: list[float] = []
    field_calls = [0]

    def setup():
        """Draw and time the next set-up; return its task list and input directory."""
        draw = len(setups)
        target = os.path.join(workdir, f"draw{draw}")
        os.makedirs(target)
        before, _ = speed_scale()
        import_s = timed_import()
        start = time.perf_counter()
        tasks = workloads.build(args.workload, args.seed, draw, pkg, target, args.tiny, field_calls)
        seconds = import_s + time.perf_counter() - start
        after, _ = speed_scale()
        setups.append(seconds * (before + after) / 2)
        return tasks, target

    try:
        tracer = spans.Tracer() if args.trace else None
        plain, traced = [], []
        failures: dict[tuple[str, str], int] = {}  # (verdict, task kind) -> count
        attempted = 0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or not plain or (tracer is not None and not traced):
            tasks, target = setup()
            if tracer is not None and len(traced) < len(plain):
                tracer.reset()
                field_calls[0] = 0
                tracer.patch(pkg)
                try:
                    result = run_round(tasks, tracer)
                finally:
                    tracer.unpatch()
                counters = dict(tracer.counters, **{"numcheck.field_evals": field_calls[0]})
                traced.append((result[:3], spans.layer_metrics(tracer.spans, counters)))
            else:
                result = run_round(tasks)
                plain.append(result[:3])
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for task, outcome in zip(tasks, result[3]):
                verdict = task.check(outcome)
                if verdict != "ok":
                    failures[verdict, task.kind] = failures.get((verdict, task.kind), 0) + 1
            attempted += len(tasks)
            del tasks, result
            shutil.rmtree(target)
        while len(setups) < SETUP_REPEATS:
            shutil.rmtree(setup()[1])  # timed only, when the run held fewer rounds

        for (verdict, kind), count in sorted(failures.items()):
            print(f"{verdict}: {count} {kind} task(s)", file=sys.stderr)
        rounds = plain + [r for r, _ in traced]
        print("round wall_s: " + " ".join(f"{r[0]:.3f}" for r in rounds), file=sys.stderr)
        failed = sum(failures.values())
        correct = not any(verdict == "wrong" for verdict, _ in failures)

        plain_walls = typical(plain, 1)
        if tracer is None:
            latencies_ms = [1000 * s for s in plain_walls]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (sum(plain_walls), "s"),
                "cpu_s": (sum(typical(plain, 2)), "s"),
                "task_ms_p50": (statistics.median(latencies_ms), "ms"),
                "task_ms_tail": (percentile(latencies_ms, workloads.TAIL_PERCENTILE), "ms"),
                "ok_ratio": (1 - failed / attempted, "ratio"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            (wall, *_), layers = traced[0]
            metrics = {name: (layers.get(name, 0), spans.unit_of(name)) for name in spans.PER_LAYER}
            metrics["trace.wall_s"] = (wall, "s")
            traced_walls = typical([r for r, _ in traced], 1)
            metrics["trace.overhead_ratio"] = (sum(traced_walls) / sum(plain_walls), "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
