"""Exact rank and null-space computation over the rationals, in integers only.

Matrices come in as sequences of rows with int or Fraction entries.  Rows
are first scaled to `rational.primitive` form, then eliminated fraction-free
with full pivoting: the pivot is the first entry of maximal absolute value
in the remaining submatrix, which makes ranks and null bases reproducible
bit for bit.  Each updated row is divided by its content gcd to keep the
integers small.  Back-substitution stays in integers too (after Bareiss,
Math. Comp. 22, 1968): each pivot scales the partial null vector just enough
to keep it integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .rational import primitive


def _eliminate(rows: Sequence[Sequence[Fraction | int]], cols: int):
    """Echelonize a copy of `rows`.

    Returns (echelon, col_perm, rank):  echelon is upper triangular in the
    permuted column order, col_perm[i] gives the original index of permuted
    column i, and the first `rank` permuted columns are the pivot columns.
    """
    work = [primitive(r) for r in rows]
    for r in work:
        if len(r) != cols:
            raise ValueError("ragged matrix")
    col_perm = list(range(cols))
    m = len(work)
    rank = 0
    while rank < m and rank < cols:
        # Full pivoting: first maximal-absolute entry of the submatrix.
        best_i = best_j = -1
        best = 0
        for i in range(rank, m):
            row = work[i]
            for j in range(rank, cols):
                v = abs(row[j])
                if v > best:
                    best, best_i, best_j = v, i, j
        if best == 0:
            break
        if best_i != rank:
            work[rank], work[best_i] = work[best_i], work[rank]
        if best_j != rank:
            for row in work:
                row[rank], row[best_j] = row[best_j], row[rank]
            col_perm[rank], col_perm[best_j] = col_perm[best_j], col_perm[rank]
        pivot_row = work[rank]
        pivot = pivot_row[rank]
        for i in range(rank + 1, m):
            row = work[i]
            factor = row[rank]
            if factor == 0:
                continue
            row[rank] = 0
            for j in range(rank + 1, cols):
                row[j] = pivot * row[j] - factor * pivot_row[j]
            content = gcd(*row)
            if content > 1:
                for j in range(rank + 1, cols):
                    row[j] //= content
        rank += 1
    return work, col_perm, rank


def rank(rows: Sequence[Sequence[Fraction | int]], cols: int | None = None) -> int:
    """Exact rank over the rationals."""
    cols = _infer_cols(rows, cols)
    if cols == 0 or not rows:
        return 0
    _, _, r = _eliminate(rows, cols)
    return r


def nullspace(rows: Sequence[Sequence[Fraction | int]], cols: int | None = None) -> list[list[int]]:
    """Basis of the right null space, one primitive integer vector per free column.

    Each basis vector is scaled to coprime integers with a positive first
    nonzero entry; rank(m) + len(basis) == cols.
    """
    cols = _infer_cols(rows, cols)
    if cols == 0:
        return []
    if not rows:
        return [_unit_vector(cols, k) for k in range(cols)]
    echelon, col_perm, r = _eliminate(rows, cols)
    basis = []
    for free in range(r, cols):
        permuted = [0] * cols
        permuted[free] = 1
        for p in range(r - 1, -1, -1):
            row = echelon[p]
            s = sum(row[q] * permuted[q] for q in range(p + 1, cols))
            g = gcd(s, row[p])
            scale = row[p] // g
            permuted = [v * scale for v in permuted]
            permuted[p] = -s // g
        vector = [0] * cols
        for pos, value in enumerate(permuted):
            vector[col_perm[pos]] = value
        basis.append(primitive(vector))
    return basis


def row_reduce(rows: Sequence[Sequence[Fraction | int]], cols: int | None = None) -> list[list[int]]:
    """Independent integer rows spanning the same row space (echelon, un-permuted)."""
    cols = _infer_cols(rows, cols)
    if cols == 0 or not rows:
        return []
    echelon, col_perm, r = _eliminate(rows, cols)
    reduced = []
    for i in range(r):
        out = [0] * cols
        for pos, value in enumerate(echelon[i]):
            out[col_perm[pos]] = value
        reduced.append(out)
    return reduced


def _infer_cols(rows, cols: int | None) -> int:
    if cols is not None:
        return cols
    if not rows:
        raise ValueError("column count required for an empty matrix")
    return len(rows[0])


def _unit_vector(cols: int, k: int) -> list[int]:
    v = [0] * cols
    v[k] = 1
    return v

