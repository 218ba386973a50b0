"""Every value type of the package survives pickle, deepcopy and, for
dataclasses, `dataclasses.replace`, as an equal value of the same type.

Ray and FanPartition have hand-written constructors that these copies must
either bypass (pickle, deepcopy) or re-run on the stored fields (replace).
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from supersmooth import (
    NumericConfig,
    Ray,
    X,
    Y,
    build_counterexample,
    build_fan,
    expand_power_operator,
    supersmoothness_verdict,
)

_SPEC = build_counterexample([1, Fraction(-2, 3), 5], 2)

VALUES = {
    "Ray": Ray(Fraction(1, 2), -3),
    "FanPartition": build_fan([Ray(1, 0), Ray(-1, 0), Ray(1, 2)]),
    "BiPoly": Fraction(3, 4) * X**2 * Y - 5 * Y**3 + 1,
    "PiecewisePoly": _SPEC.spline,
    "CounterexampleSpec": _SPEC,
    "OperatorPoly": expand_power_operator([Ray(1, 0), Ray(0, 1), Ray(1, 1), Ray(1, -2)], 2).product,
    "SmoothnessReport": supersmoothness_verdict(_SPEC.spline),
    "NumericConfig": NumericConfig(base_step=1e-2, richardson_levels=4),
}


def _assert_same(copied, value):
    assert type(copied) is type(value)
    assert copied == value
    assert repr(copied) == repr(value)


@pytest.mark.parametrize("name", VALUES)
def test_pickle_round_trip(name):
    value = VALUES[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        _assert_same(pickle.loads(pickle.dumps(value, protocol)), value)


@pytest.mark.parametrize("name", VALUES)
def test_deepcopy_round_trip(name):
    value = VALUES[name]
    _assert_same(copy.deepcopy(value), value)


@pytest.mark.parametrize("name", [name for name, value in VALUES.items() if dataclasses.is_dataclass(value)])
def test_replace_without_changes_round_trips(name):
    value = VALUES[name]
    _assert_same(dataclasses.replace(value), value)


def test_each_value_is_of_the_type_it_is_listed_under():
    assert [type(value).__name__ for value in VALUES.values()] == list(VALUES)
