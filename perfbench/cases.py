"""The fixed cases of ROADMAP's open-items table, timed through the public CLI.

    python3 perfbench/cases.py [--long]

Run from the repository root.  Each case runs REPEATS times in this
process; one JSON line per case gives every run's wall and CPU seconds and
whether every run's output matched its oracle.  --long adds the 11-ray `dim` case
(tens of seconds per run), which is too slow for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REPEATS = 3


def dim_case(k, d, r):
    argv = ["dim", "--degree", str(d), "--smoothness", str(r), "--slopes", ",".join(map(str, range(1, k)))]
    return f"dim k={k} d={d} r={r}", argv, workloads.expect_stdout(f"{oracles.schumaker_dimension(k, k, d, r)}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="time the ROADMAP table cases")
    parser.add_argument("--long", action="store_true", help="add the 11-ray dim case")
    args = parser.parse_args(argv)

    pkg = run.import_package()
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cases-", dir=run.WORK)
    try:
        n = 16
        slopes = list(range(1, n + 2))
        counterexample = os.path.join(workdir, "counterexample16.json")
        power = os.path.join(workdir, "power400.json")
        with open(power, "w", encoding="utf-8") as handle:
            json.dump(oracles.spline_document([(1, 0), (-1, 0)], [{}, {(0, 400): 1}]), handle)
        # The grid case samples the same spline written independently, so its
        # oracle knows the exact pieces (construct scales them to integers).
        rays, pieces = oracles.counterexample(slopes, n)
        grid_doc = os.path.join(workdir, "grid16.json")
        with open(grid_doc, "w", encoding="utf-8") as handle:
            json.dump(oracles.spline_document(rays, pieces), handle)
        cases = [
            dim_case(7, 8, 5),
            ("construct n=16", ["construct", "--n", str(n), "--slopes", ",".join(map(str, slopes)),
                                "-o", counterexample], workloads.expect_stdout("")),
            ("check n=16", ["check", counterexample], workloads.expect_stdout(
                oracles.report_lines(n + 2, [n - 1] * (n + 2), n - 1, n - 1, False, "not applicable"))),
            ("sample n=16 --grid-n 129", ["sample", grid_doc, "--grid-n", "129"],
             workloads.GridOracle(rays, pieces, 129)),
            ("check y^400", ["check", power], workloads.expect_stdout(
                oracles.report_lines(2, [399, 399], 399, 399, False, "not applicable"))),
        ]
        if args.long:
            cases.append(dim_case(11, 12, 9))
        for name, case_argv, check in cases:
            task = workloads.cli_task(pkg, name, case_argv, check)
            walls, cpus, verdicts = [], [], []
            for _ in range(REPEATS):
                wall0, cpu0 = time.perf_counter(), time.process_time()
                outcome = task.run()
                cpus.append(time.process_time() - cpu0)
                walls.append(time.perf_counter() - wall0)
                verdicts.append(task.check(outcome))
            correct = all(verdict == "ok" for verdict in verdicts)
            print(json.dumps({"case": name, "wall_s": walls, "cpu_s": cpus, "correct": correct}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
