"""The benchmark's `space`, `grid` and `verdict` tasks pass their own oracles on the package as it stands.

`perfbench/workloads.py` checks every task output against an independent
answer (Schumaker's dimension for `dim` and general fans, the order and
rank of sampled spline-space bases, exact per-row grid sectors and values,
the README fixture verdicts, the ray lemma on continuous splines, the rays
and slopes of each written counterexample and its n-1 report, the
half-plane and y^d reports, expanded power operators, one error line per
malformed document).  Running the tiny task lists here puts those oracles
in the test suite, without a benchmark run; a `space` check runs outside
its task's guard, so an exception there would end a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import supersmooth
import supersmooth.cli  # noqa: F401  (the workloads drive the CLI through `pkg.cli`)

_PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its sibling `oracles` by plain name
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look the module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [5, 11])
def test_tiny_space_tasks_pass_their_checks(workloads, tmp_path, seed):
    tasks = workloads.build("space", seed, 0, supersmooth, str(tmp_path), tiny=True)
    assert {task.kind for task in tasks} == {"dim", "fan_dim", "sample"}
    verdicts = [(task.kind, task.check(task.run())) for task in tasks]
    assert [entry for entry in verdicts if entry[1] != "ok"] == []


@pytest.mark.parametrize("seed", [5, 11])
def test_tiny_grid_tasks_pass_their_checks(workloads, tmp_path, seed):
    field_calls = [0]
    tasks = workloads.build("grid", seed, 0, supersmooth, str(tmp_path), tiny=True, field_calls=field_calls)
    kinds = {task.kind for task in tasks}
    assert {"sample_grid", "corner_gradient", "witness", "ray_lemma", "field_rays"} <= kinds
    verdicts = [(task.kind, task.check(task.run())) for task in tasks]
    assert [entry for entry in verdicts if entry[1] != "ok"] == []
    assert field_calls[0] > 0


@pytest.mark.parametrize("seed", [5, 11])
def test_tiny_verdict_tasks_pass_their_checks(workloads, tmp_path, seed):
    # tasks run in list order: each `check` reads the document its `construct` wrote
    tasks = workloads.build("verdict", seed, 0, supersmooth, str(tmp_path), tiny=True)
    kinds = [task.kind for task in tasks]
    assert {"construct", "check", "expand", "apply", "malformed"} <= set(kinds)
    verdicts = [(task.kind, task.check(task.run())) for task in tasks]
    assert [entry for entry in verdicts if entry[1] != "ok"] == []
