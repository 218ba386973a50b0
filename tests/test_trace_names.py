"""The names `perfbench/spans.py` patches must exist, or `run.py --trace 1` fails.

spans.py is stdlib-only and patches by (module, attribute); a rename in the
package would surface there only as an AttributeError at trace time.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from supersmooth.poly import BiPoly

_SPANS_PATH = Path(__file__).parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize(
    "module, attribute",
    sorted({entry[:2] for entry in SPANS.FUNCTION_PATCHES + SPANS.COUNT_PATCHES}),
)
def test_patched_function_resolves(module, attribute):
    owner = importlib.import_module(f"supersmooth.{module}")
    assert callable(getattr(owner, attribute, None)), f"supersmooth.{module}.{attribute}"


@pytest.mark.parametrize("attribute", [attribute for attribute, _ in SPANS.METHOD_PATCHES])
def test_patched_bipoly_method_resolves(attribute):
    assert callable(getattr(BiPoly, attribute, None))
