"""Self-test of the benchmark: a tiny version of every workload, checked three ways.

    python3 perfbench/selftest.py

Run from the repository root.  For each workload it runs perfbench/run.py
with --tiny, untraced and traced, on SELFTEST_SEED, which the recorded
baselines do not use, and checks that
  1. every metric BENCHMARK.json names is printed, with its unit;
  2. 1 - ok_ratio equals the share of the task list made of malformed inputs
     that the CLI currently mishandles, found independently by running each
     one of the first draw in a fresh interpreter and reading its real exit
     code and stderr (every draw has the same malformed kinds);
  3. the busy time of the top-level spans sums to no more than the traced
     round's wall time.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SELFTEST_SEED = 424242
CLI_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); from supersmooth.cli import main; sys.exit(main(sys.argv[2:]))"


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SELFTEST_SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mishandled_share(workload: str, pkg) -> float:
    """Share of the tiny task list that is malformed input the CLI mishandles."""
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        tasks = workloads.build(workload, SELFTEST_SEED, 0, pkg, workdir, tiny=True)
        mishandled = 0
        for task in tasks:
            if not task.malformed:
                continue
            proc = subprocess.run([sys.executable, "-c", CLI_PROBE, run.SRC, *task.argv],
                                  capture_output=True, text=True, timeout=60, cwd=ROOT)
            lines = proc.stderr.splitlines()
            clean = proc.returncode == 1 and not proc.stdout and len(lines) == 1 and lines[0].startswith("error: ")
            mishandled += not clean
        return mishandled / len(tasks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    pkg = run.import_package()
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            if not result["correct"]:
                problems.append(f"{workload}: a task gave a wrong answer")
            metrics = result["metrics"]
            for metric in spec[key]:
                printed = metrics.get(metric["name"])
                if printed is None or printed["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} missing or not in {metric['unit']}")
            if trace == 0:
                expected = mishandled_share(workload, pkg)
                got = 1 - metrics["ok_ratio"]["value"]
                if abs(got - expected) > 1e-9:
                    problems.append(f"{workload}: failed share {got:.4f}, expected {expected:.4f}")
                print(f"{workload}: failed share {got:.4f} (mishandled malformed inputs {expected:.4f})")
            else:
                top, wall = metrics["trace.top_busy_s"]["value"], metrics["trace.wall_s"]["value"]
                if top > wall:
                    problems.append(f"{workload}: top-level busy {top:.4f} s exceeds traced wall {wall:.4f} s")
                print(f"{workload}: top-level busy {top:.4f} s <= traced wall {wall:.4f} s")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
