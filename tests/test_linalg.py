from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supersmooth.linalg import nullspace, rank, row_reduce
from helpers import fraction_nullspace, sympy_nullspace


def test_nullspace_single_row():
    basis = nullspace([[1, 2]])
    assert basis == [[2, -1]]
    assert 1 * 2 + 2 * (-1) == 0


def test_nullspace_full_rank_is_empty():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_rank_and_nullspace_power_rows():
    rows = [[1, 2, 3], [1, 4, 9]]
    assert rank(rows) == 2
    basis = nullspace(rows)
    assert basis == [[3, -3, 1]]
    for row in rows:
        assert sum(a * b for a, b in zip(row, basis[0])) == 0


def test_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)]]
    (vec,) = nullspace(rows)
    assert sum(a * b for a, b in zip(rows[0], vec)) == 0
    assert vec[0] > 0


def test_empty_matrix_nullspace_is_standard_basis():
    assert nullspace([], cols=3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank([], cols=3) == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rank([[1, 2], [3]]), "ragged matrix"),
        (lambda: nullspace([]), "column count required for an empty matrix"),
    ],
)
def test_malformed_matrices_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_zero_rows_do_not_affect_rank():
    assert rank([[0, 0, 0], [1, 2, 3]]) == 1


def test_row_reduce_preserves_row_space():
    rows = [[2, 4, 6], [1, 2, 3], [0, 0, 1]]
    reduced = row_reduce(rows)
    assert len(reduced) == rank(rows)
    # every original row must be killed by the null space of the reduced rows
    for vec in nullspace(reduced, cols=3):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_deterministic_output():
    rows = [[3, 1, 4, 1], [5, 9, 2, 6]]
    assert nullspace(rows) == nullspace(rows)
    assert rank(rows) == rank([list(r) for r in rows])


matrix_shapes = st.tuples(st.integers(1, 6), st.integers(1, 7))


def _matrices(entries):
    return matrix_shapes.flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


@given(_matrices(st.integers(-9, 9)))
def test_nullspace_property(rows):
    cols = len(rows[0])
    basis = nullspace(rows, cols=cols)
    assert rank(rows, cols=cols) + len(basis) == cols
    for vec in basis:
        assert any(v != 0 for v in vec)
        first = next(v for v in vec if v != 0)
        assert first > 0
        from math import gcd

        assert gcd(*vec) == 1
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


# sympy's basis is the reduced-echelon one: one vector per free column, zero
# at every other free column, so it depends on the matrix alone and is an
# oracle independent of linalg.
# The extra zeros make rank-deficient matrices, and so long null bases, common.
@given(_matrices(st.integers(-30, 30) | st.just(0)))
def test_integer_back_substitution_equals_fraction_route_on_ints(rows):
    assert nullspace(rows) == fraction_nullspace(rows) == sympy_nullspace(rows)


@given(_matrices(st.fractions(min_value=-9, max_value=9, max_denominator=8)))
def test_integer_back_substitution_equals_fraction_route_on_fractions(rows):
    assert nullspace(rows) == fraction_nullspace(rows) == sympy_nullspace(rows)


def test_row_reduce_is_the_echelon_form():
    assert row_reduce([[0, 2, 4], [0, 0, 0], [3, 1, 1], [0, 1, 2]]) == [[3, 1, 1], [0, 1, 2]]
