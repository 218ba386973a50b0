"""Each package module imports only the standard library, every name it
imports is used in it, and every function or class it defines is used
somewhere.

A BiPoly's storage stays behind its module: no other package module reads
one of its slots or calls object.__new__; they build through `BiPoly(...)`
and `BiPoly._from_frame` and read through `integer_frame()`.

What counts as an exact number has one owner: outside `rational`, no
package module spells the exact-input TypeError or takes an lcm of
`.denominator` attributes, and no `raise` refuses a zero direction.  What the
counterexample costs has one owner too: `construct` bounds it, and `cli`,
which keeps only the cap, binds nothing from `math`.  Clockwise order is
`fan`'s: no other module binds one of its private names.  A dataclass is
its fields: none declares a `field(init=False)`, a copy derived from the
others that equality, hashing and `dataclasses.replace` would carry along.

The one exception to the second rule: a name that `perfbench/spans.py`
patches in that module (its `FUNCTION_PATCHES`) stays bound there for the
patch, whether or not the module calls it.
"""

import ast
import sys
from pathlib import Path

import pytest

from supersmooth.poly import BiPoly
from test_trace_names import SPANS

_ROOT = Path(__file__).parent.parent
_PACKAGE = _ROOT / "src" / "supersmooth"
_MODULES = sorted(path for path in _PACKAGE.glob("*.py") if path.name != "__init__.py")
_PATCHED = {(module, name) for module, name, *_ in SPANS.FUNCTION_PATCHES}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "returns", None), getattr(node, "annotation", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.stem)
def test_absolute_imports_are_standard_library(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            assert root in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {root}"


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.stem)
def test_imported_names_are_used_or_patched(path):
    tree = _tree(path)
    used = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                assert name in used or (path.stem, name) in _PATCHED, f"{path.name}:{node.lineno} binds unused {name}"


@pytest.mark.parametrize("path", [path for path in _MODULES if path.name != "poly.py"], ids=lambda path: path.stem)
def test_bipoly_storage_is_read_only_in_its_module(path):
    slots = set(BiPoly.__slots__)
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute):
            assert node.attr not in slots, f"{path.name}:{node.lineno} reads BiPoly.{node.attr}"
            is_object_new = node.attr == "__new__" and isinstance(node.value, ast.Name) and node.value.id == "object"
            assert not is_object_new, f"{path.name}:{node.lineno} calls object.__new__"
        elif isinstance(node, ast.Constant):
            assert node.value not in slots, f"{path.name}:{node.lineno} names BiPoly.{node.value}"


@pytest.mark.parametrize("path", [path for path in _MODULES if path.name != "rational.py"], ids=lambda path: path.stem)
def test_exact_input_is_decided_only_in_rational(path):
    offences = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "expected an exact rational" in node.value:
            offences.append(f"{path.name}:{node.lineno} spells the exact-input TypeError")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lcm":
            if any(isinstance(inner, ast.Attribute) and inner.attr == "denominator" for inner in ast.walk(node)):
                offences.append(f"{path.name}:{node.lineno} takes an lcm of denominators")
    assert not offences, offences


@pytest.mark.parametrize("path", [path for path in _MODULES if path.name != "rational.py"], ids=lambda path: path.stem)
def test_a_zero_direction_is_refused_only_in_rational(path):
    offences = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Raise):
            inner = list(ast.walk(node))
            texts = [n.value for n in inner if isinstance(n, ast.Constant) and isinstance(n.value, str)]
            if any(getattr(n, "id", None) == "InvalidDirectionError" for n in inner) or any(
                "direction" in text and "nonzero" in text for text in texts
            ):
                offences.append(f"{path.name}:{node.lineno} refuses a zero direction")
    assert not offences, offences


def test_cli_binds_nothing_from_math():
    offences = []
    for node in ast.walk(_tree(_PACKAGE / "cli.py")):
        if isinstance(node, ast.Import):
            offences += [f"cli.py:{node.lineno} binds {a.name}" for a in node.names if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            offences += [f"cli.py:{node.lineno} binds {a.name} from math" for a in node.names]
    assert not offences, offences


def test_no_module_outside_fan_binds_a_private_fan_name():
    offences = []
    for path in _MODULES:
        if path.name == "fan.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "fan":
                offences += [f"{path.name}:{node.lineno} binds fan.{a.name}" for a in node.names if a.name.startswith("_")]
    assert not offences, offences


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.stem)
def test_no_dataclass_declares_a_derived_field(path):
    offences = []
    for cls in ast.walk(_tree(path)):
        if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
            continue
        for node in cls.body:
            value = node.value if isinstance(node, ast.AnnAssign) else None
            if isinstance(value, ast.Call) and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field":
                init = next((kw.value for kw in value.keywords if kw.arg == "init"), None)
                if isinstance(init, ast.Constant) and init.value is False:
                    offences.append(f"{path.name}:{node.lineno} {cls.name}.{node.target.id} is field(init=False)")
    assert not offences, offences


def _references(tree: ast.Module) -> set[str]:
    """Names a module refers to: read names, attributes, imported names and
    identifier strings (a patch table names its targets as strings)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.add(node.value)
    return refs


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function and class and of each
    function and class in a module-level class body, dunders excluded."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from ((inner.name, inner.lineno) for inner in node.body if isinstance(inner, kinds))


def test_every_definition_is_referenced():
    sources = [*_PACKAGE.rglob("*.py"), *(_ROOT / "tests").rglob("*.py"), *(_ROOT / "perfbench").rglob("*.py")]
    refs = set().union(*(_references(_tree(path)) for path in sources))
    dead = [
        f"{path.name}:{line} {name}"
        for path in _MODULES
        for name, line in _definitions(_tree(path))
        if not (name.startswith("__") and name.endswith("__")) and name not in refs
    ]
    assert not dead, f"defined but never referenced: {dead}"
