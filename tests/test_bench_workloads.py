"""The benchmark's `grid` tasks pass their own oracles on the package as it stands.

`perfbench/workloads.py` checks every task output against an independent
answer (exact per-row grid sectors and values, the README fixture verdicts,
the ray lemma on continuous splines).  Running the tiny task list here puts
those numeric oracles in the test suite, without a benchmark run.
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
def test_tiny_grid_tasks_pass_their_checks(workloads, tmp_path, seed):
    field_calls = [0]
    tasks = workloads.build("grid", seed, 0, supersmooth, str(tmp_path), tiny=True, field_calls=field_calls)
    kinds = {task.kind for task in tasks}
    assert {"sample_grid", "corner_gradient", "witness", "ray_lemma", "field_rays"} <= kinds
    verdicts = [(task.kind, task.check(task.run())) for task in tasks]
    assert [entry for entry in verdicts if entry[1] != "ok"] == []
    assert field_calls[0] > 0
