"""Each package module imports only the standard library, and every name it
imports is used in it.

The one exception to the second rule: a name that `perfbench/spans.py`
patches in that module (its `FUNCTION_PATCHES`) stays bound there for the
patch, whether or not the module calls it.
"""

import ast
import sys
from pathlib import Path

import pytest

from test_trace_names import SPANS

_PACKAGE = Path(__file__).parent.parent / "src" / "supersmooth"
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
