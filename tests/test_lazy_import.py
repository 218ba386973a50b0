"""The package namespace is lazy, and the CLI imports only what its commands run.

Each check runs in a fresh interpreter: in this process earlier tests have
already imported every module, so a missing or an extra import would not
show here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from supersmooth import cli, numcheck
from supersmooth.cli import main

_SOURCE = str(Path(cli.__file__).parent.parent)

# What `import supersmooth.cli` loads of the package: the exact modules its
# commands run, without the float toolkit and the derivative operators.
_CLI_MODULES = [
    "supersmooth",
    "supersmooth.cli",
    "supersmooth.construct",
    "supersmooth.dimension",
    "supersmooth.errors",
    "supersmooth.fan",
    "supersmooth.linalg",
    "supersmooth.poly",
    "supersmooth.rational",
    "supersmooth.serialize",
    "supersmooth.spline",
]


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh interpreter that imports the package from this source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SOURCE, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def _loaded_after(statement: str) -> dict:
    """The package modules, and whether `logging` is loaded, after `statement` in a fresh interpreter."""
    script = (
        f"import sys, json; {statement}; "
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'supersmooth'), 'logging' in sys.modules]))"
    )
    modules, logging = json.loads(_fresh("-c", script).stdout)
    return {"modules": modules, "logging": logging}


def test_importing_the_cli_loads_only_what_its_commands_run():
    assert _loaded_after("import supersmooth.cli") == {"modules": _CLI_MODULES, "logging": False}
    assert _loaded_after("import supersmooth") == {"modules": ["supersmooth"], "logging": False}


def test_fixture_demos_print_the_same_bytes_in_a_fresh_interpreter(capsys):
    for name in ("lemma-xy", "corner-quadratic"):
        assert main(["demo", name]) == 0
        assert _fresh("-m", "supersmooth", "demo", name).stdout == capsys.readouterr().out, name


def test_the_cli_spells_the_fixture_names_of_numcheck():
    assert cli.FIXTURE_DEMOS == tuple(numcheck.FIXTURES)


def test_every_public_name_resolves_and_a_star_import_binds_it():
    script = (
        "import json, supersmooth; names = supersmooth.__all__; "
        "missing = [n for n in names if not hasattr(supersmooth, n)]; "
        "star = {}; exec('from supersmooth import *', star); "
        "print(json.dumps([names, missing, sorted(set(names) - set(star)), sorted(set(names) - set(dir(supersmooth)))]))"
    )
    names, missing, unbound, undirected = json.loads(_fresh("-c", script).stdout)
    assert len(names) == len(set(names)) > 70
    assert {"verify_ray_lemma", "expand_power_operator", "supersmoothness_verdict", "DomainError"} <= set(names)
    assert (missing, unbound, undirected) == ([], [], [])
    done = _fresh("-c", "import supersmooth; print(supersmooth.numcheck.__name__)")
    assert done.stdout == "supersmooth.numcheck\n"


def test_an_unknown_attribute_is_an_attribute_error_naming_it():
    script = (
        "import supersmooth\n"
        "try:\n    supersmooth.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)\n"
    )
    assert _fresh("-c", script).stdout == "module 'supersmooth' has no attribute 'no_such_name'\n"
