"""Exact rank and null-space computation over the rationals, in integers only.

Matrices come in as sequences of rows with int or Fraction entries.  Rows
are first scaled to `rational.primitive` form, then eliminated fraction-free
with column-order pivots: the pivot of a column is the first remaining row
that is nonzero there.  Each updated row is divided by its content gcd to
keep the integers small.  Back-substitution stays in integers too (after
Bareiss, Math. Comp. 22, 1968): each pivot scales the partial null vector
just enough to keep it integral.  The null basis is the canonical one of the
reduced echelon form, one vector per free column that is zero at every other
free column, so it depends on the matrix alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .rational import primitive


def _eliminate(rows: Sequence[Sequence[Fraction | int]], cols: int):
    """Echelonize a copy of `rows`.

    Returns (echelon, pivots):  echelon[p] is zero before column pivots[p]
    and nonzero there, pivots increase, and the rows after the last pivot
    row are zero.
    """
    work = [primitive(r) for r in rows]
    if any(len(r) != cols for r in work):
        raise ValueError("ragged matrix")
    pivots = []
    for col in range(cols):
        top = len(pivots)
        found = next((i for i in range(top, len(work)) if work[i][col]), None)
        if found is None:
            continue
        work[top], work[found] = work[found], work[top]
        pivot_row = work[top]
        pivot = pivot_row[col]
        for row in work[top + 1:]:
            factor = row[col]
            if factor == 0:
                continue
            row[col] = 0
            for j in range(col + 1, cols):
                row[j] = pivot * row[j] - factor * pivot_row[j]
            content = gcd(*row)
            if content > 1:
                for j in range(col + 1, cols):
                    row[j] //= content
        pivots.append(col)
    return work, pivots


def rank(rows: Sequence[Sequence[Fraction | int]], cols: int | None = None) -> int:
    """Exact rank over the rationals."""
    return len(_eliminate(rows, _infer_cols(rows, cols))[1])


def nullspace(rows: Sequence[Sequence[Fraction | int]], cols: int | None = None) -> list[list[int]]:
    """Basis of the right null space, one primitive integer vector per free column.

    Each basis vector is scaled to coprime integers with a positive first
    nonzero entry; rank(m) + len(basis) == cols.
    """
    cols = _infer_cols(rows, cols)
    echelon, pivots = _eliminate(rows, cols)
    pivot_rows = list(zip(echelon, pivots))[::-1]
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        vector = [0] * cols
        vector[free] = 1
        for row, p in pivot_rows:
            if p > free:
                continue
            s = sum(row[q] * vector[q] for q in range(p + 1, free + 1))
            g = gcd(s, row[p])
            scale = row[p] // g
            vector = [v * scale for v in vector]
            vector[p] = -s // g
        basis.append(primitive(vector))
    return basis


def row_reduce(rows: Sequence[Sequence[Fraction | int]], cols: int | None = None) -> list[list[int]]:
    """Independent integer rows spanning the same row space, in echelon form."""
    echelon, pivots = _eliminate(rows, _infer_cols(rows, cols))
    return echelon[:len(pivots)]


def _infer_cols(rows, cols: int | None) -> int:
    if cols is not None:
        return cols
    if not rows:
        raise ValueError("column count required for an empty matrix")
    return len(rows[0])
