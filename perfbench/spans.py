"""Out-of-package tracing: wrap each layer's functions where callers look them up.

A span is (name, parent span id, task id, start, end).  Spans stay in memory
and are folded into per-layer metrics when a traced round ends.  A layer is
the package module a span name starts with; a layer's self time is its
spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli", "serialize", "spline", "poly", "linalg", "dimension",
    "construct", "fan", "operators", "numcheck", "rational",
)


def _max_bits(vectors) -> int:
    return max((abs(int(v)).bit_length() for vec in vectors for v in vec), default=0)


def _linalg_in(counters, args, kwargs, result, rank_of):
    rows = args[0]
    cols = kwargs.get("cols", args[1] if len(args) > 1 else None)
    if cols is None:
        cols = len(rows[0]) if rows else 0
    counters["linalg.input_cells"] += len(rows) * cols
    counters["linalg.rows_in"] += len(rows)
    counters["linalg.rank_out"] += rank_of(result, cols)


def _rank_hook(counters, args, kwargs, result):
    _linalg_in(counters, args, kwargs, result, lambda r, cols: r)


def _nullspace_hook(counters, args, kwargs, result):
    _linalg_in(counters, args, kwargs, result, lambda r, cols: cols - len(r))
    counters["linalg.out_max_bits"] = max(counters["linalg.out_max_bits"], _max_bits(result))


def _row_reduce_hook(counters, args, kwargs, result):
    _linalg_in(counters, args, kwargs, result, lambda r, cols: len(r))


def _basis_hook(counters, args, kwargs, result):
    coeffs = [
        [c.numerator for c in piece.terms.values()] + [c.denominator for c in piece.terms.values()]
        for spline in result
        for piece in spline.pieces
    ]
    counters["dimension.basis_max_bits"] = max(counters["dimension.basis_max_bits"], _max_bits(coeffs))


def _bytes_of_arg(key):
    def hook(counters, args, kwargs, result):
        counters[key] += len(args[0])
    return hook


def _bytes_of_result(key):
    def hook(counters, args, kwargs, result):
        counters[key] += len(result)
    return hook


def _product_terms_hook(counters, args, kwargs, result):
    counters["operators.product_terms"] += len(result.product.terms)


# (module, attribute, span name, result hook).  Each attribute is patched in
# the namespace its callers read it from, so `from .x import f` copies are
# covered by listing the importing module.
FUNCTION_PATCHES = (
    ("cli", "main", "cli.main", None),
    ("cli", "decode_spline", "serialize.decode", _bytes_of_arg("serialize.decode.bytes")),
    ("cli", "encode_counterexample", "serialize.encode", _bytes_of_result("serialize.encode.bytes")),
    ("cli", "sample_grid", "serialize.grid", None),
    ("cli", "render_grid_csv", "serialize.csv", _bytes_of_result("serialize.csv.bytes")),
    ("cli", "supersmoothness_verdict", "spline.verdict", None),
    ("cli", "render_report", "spline.render", None),
    ("cli", "build_counterexample", "construct.build", None),
    ("cli", "fan_from_slopes", "construct.slope_fan", None),
    ("cli", "spline_space_dimension", "dimension.dim", None),
    ("cli", "build_fan", "fan.build", None),
    ("serialize", "locate_sector", "fan.locate", None),
    ("serialize", "build_fan", "fan.build", None),
    ("spline", "locate_sector", "fan.locate", None),
    ("spline", "smoothness_across_ray", "spline.ray_order", None),
    ("spline", "origin_smoothness_order", "spline.origin_order", None),
    ("spline", "restrict_to_ray", "poly.restrict", None),
    ("construct", "counterexample_coeffs", "construct.coeffs", None),
    ("construct", "global_smoothness_order", "spline.global_order", None),
    ("construct", "origin_smoothness_order", "spline.origin_order", None),
    ("construct", "build_fan", "fan.build", None),
    ("construct", "linear_form_power", "poly.linear_power", None),
    ("construct", "nullspace", "linalg.nullspace", _nullspace_hook),
    ("linalg", "rank", "linalg.rank", _rank_hook),
    ("linalg", "nullspace", "linalg.nullspace", _nullspace_hook),
    ("linalg", "row_reduce", "linalg.row_reduce", _row_reduce_hook),
    ("dimension", "spline_space_dimension", "dimension.dim", None),
    ("dimension", "spline_space_basis", "dimension.basis", _basis_hook),
    ("dimension", "sample_spline_space", "dimension.sample", None),
    ("fan", "build_fan", "fan.build", None),
    ("operators", "expand_power_operator", "operators.expand", _product_terms_hook),
    ("operators", "apply_operator", "operators.apply", None),
    ("operators", "directional_derivative", "poly.dirderiv", None),
    ("numcheck", "verify_field_rays", "numcheck.field_rays", None),
    ("numcheck", "verify_ray_lemma", "numcheck.ray_lemma", None),
    ("numcheck", "verify_corner_gradient", "numcheck.corner", None),
    ("numcheck", "corner_witness_check", "numcheck.witness", None),
)

# BiPoly methods, patched on the class itself.
METHOD_PATCHES = (
    ("__mul__", "poly.mul"),
    ("__rmul__", "poly.mul"),
    ("partial", "poly.partial"),
    ("evaluate", "poly.evaluate"),
)

# Functions cheap enough that only their calls are counted, without a span.
COUNT_PATCHES = (
    ("cli", "parse_rational", "rational.parse.calls"),
    ("serialize", "parse_rational", "rational.parse.calls"),
    ("serialize", "format_rational", "rational.format.calls"),
)


class Tracer:
    """In-memory span recorder whose wrappers are installed by `patch`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.task = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, self.task, start, end)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def counted(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counting

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, package) -> None:
        for module, attr, name, hook in FUNCTION_PATCHES:
            owner = getattr(package, module)
            self._set(owner, attr, self.wrap(name, getattr(owner, attr), hook))
        bipoly = package.poly.BiPoly
        for attr, name in METHOD_PATCHES:
            self._set(bipoly, attr, self.wrap(name, getattr(bipoly, attr)))
        for module, attr, key in COUNT_PATCHES:
            owner = getattr(package, module)
            self._set(owner, attr, self.counted(key, getattr(owner, attr)))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()


# The per-layer metrics a traced run reports (trace.wall_s and
# trace.overhead_ratio are added by run.py).
PER_LAYER = (
    [f"{layer}.{part}" for layer in LAYERS if layer != "rational" for part in ("busy_s", "self_s")]
    + [
        "cli.main.calls",
        "serialize.decode.busy_s", "serialize.decode.bytes",
        "serialize.encode.busy_s", "serialize.encode.bytes",
        "serialize.grid.busy_s", "serialize.csv.busy_s", "serialize.csv.bytes",
        "rational.parse.calls", "rational.format.calls",
        "fan.locate.calls", "fan.locate.busy_s", "fan.build.calls", "fan.build.busy_s",
        "spline.verdict.busy_s", "spline.ray_order.calls", "spline.ray_order.busy_s",
        "spline.origin_order.busy_s",
        "poly.partial.calls", "poly.partial.busy_s", "poly.restrict.calls", "poly.restrict.busy_s",
        "poly.mul.calls", "poly.mul.busy_s", "poly.evaluate.calls", "poly.evaluate.busy_s",
        "construct.coeffs.busy_s",
        "linalg.rank.calls", "linalg.rank.busy_s", "linalg.nullspace.calls", "linalg.nullspace.busy_s",
        "linalg.row_reduce.calls", "linalg.row_reduce.busy_s",
        "linalg.input_cells", "linalg.rank_ratio", "linalg.out_max_bits",
        "dimension.basis_max_bits",
        "operators.expand.busy_s", "operators.apply.busy_s", "operators.product_terms",
        "numcheck.field_evals",
        "trace.top_busy_s", "trace.spans",
    ]
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_bits"):
        return "bit"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer calls, busy and self time, plus the counters, for one round.

    busy_s of a span name sums its spans; busy_s of a layer sums only the
    spans whose parent lies in another layer, so nested calls within a
    layer are not counted twice.  self_s subtracts the children's spans.
    """
    child_time = defaultdict(float)
    for name, parent, _task, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    top_busy = 0.0
    for sid, (name, parent, _task, start, end) in enumerate(spans):
        layer = name.split(".", 1)[0]
        duration = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += duration
        out[f"{layer}.self_s"] += duration - child_time[sid]
        if parent < 0:
            top_busy += duration
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            out[f"{layer}.busy_s"] += duration
    out.update(counters)
    rows_in = counters.get("linalg.rows_in", 0)
    out["linalg.rank_ratio"] = counters.get("linalg.rank_out", 0) / rows_in if rows_in else 0.0
    out["trace.top_busy_s"] = top_busy
    out["trace.spans"] = len(spans)
    return out
