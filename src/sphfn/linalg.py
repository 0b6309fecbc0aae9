"""Exact linear algebra over the rationals.

Small dense systems only, which is all the invariant computations need. The
elimination is fraction-free Gauss-Jordan (after Bareiss, Math. Comp. 22,
1968, but keeping entries small by the gcd of each row rather than by exact
division by the previous pivot): each row is scaled to integers once, a row
of ints taken as it is; a row is cleared by p * row - q * pivot_row and
divided by the gcd of its entries, and the pivot rows are divided by their
pivots only at the end. One integer core, _eliminate, serves both routines:
nullspace divides only its kernel's nonzero entries, and solve only the
right-hand column. The reduced row echelon form is unique, so the Fractions
returned are exactly those of plain Gauss-Jordan elimination over Fraction.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Matrix = list[list[Fraction]]

__all__ = ["nullspace", "solve", "over_common_denominator"]


def over_common_denominator(values: Iterable) -> tuple[list[int], int]:
    """Integers x_i and the positive lcm d of the denominators, values_i = x_i / d.

    Values that are all ints come back as they are, over d = 1."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values, 1
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _check_row_lengths(matrix: Sequence[Sequence], ncols: int) -> None:
    for i, row in enumerate(matrix):
        if len(row) != ncols:
            raise ValueError(f"{ncols} columns but row {i} has {len(row)} entries")


def _eliminate(matrix: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """The integer core of every routine here: rows and pivot columns.

    Pivot row i divided by its entry at pivots[i] is row i of the reduced
    row echelon form; the rows past the pivots are zero.
    """
    m = [_primitive(over_common_denominator(row)[0]) for row in matrix]
    if not m:
        return [], []
    ncols = len(m[0])
    _check_row_lengths(m, ncols)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                g = math.gcd(pivot[c], m[i][c])
                p, q = pivot[c] // g, m[i][c] // g
                m[i] = _primitive([p * x - q * y for x, y in zip(m[i], pivot)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(matrix: Sequence[Sequence], ncols: int | None = None) -> Matrix:
    """A basis of the right kernel, one vector per free column.

    Each basis vector has a 1 in its free column and 0 in the other free
    columns, so the result is unique given the column order.
    """
    if ncols is None:
        if not matrix:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(matrix[0])
    _check_row_lengths(matrix, ncols)
    m, pivots = _eliminate(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis: Matrix = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            if m[r][f]:
                vec[c] = Fraction(-m[r][f], m[r][c])
        basis.append(vec)
    return basis


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """The unique solution of matrix @ x = rhs.

    Raises ValueError if the system is inconsistent or underdetermined; use
    this only where the theory guarantees a unique answer.
    """
    if not matrix:
        raise ValueError("cannot solve an empty system")
    if len(rhs) != len(matrix):
        raise ValueError(f"{len(matrix)} equations but {len(rhs)} right-hand sides")
    ncols = len(matrix[0])
    _check_row_lengths(matrix, ncols)
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    m, pivots = _eliminate(augmented)
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    # Every column is a pivot, so pivot row c is x_c times its pivot.
    return [Fraction(row[ncols], row[c]) for row, c in zip(m, pivots)]
