"""Invariant factors of an integer matrix, by elimination on the matrix alone.

invariant_factors(M) diagonalizes a copy of M by elementary row and column
operations (swaps and adding an integer multiple of one line to another)
until the diagonal is a divisibility chain d1 | d2 | ...  Only the diagonal
is read, so no transforms are kept: invariant factors are unique, whatever
the operations.  Pivoting on the nonzero entry of least absolute value keeps
the growth of the (arbitrary-precision) entries tame at the sizes used here.
"""

from __future__ import annotations

Matrix = list[list[int]]


def invariant_factors(matrix: Matrix, cols: int | None = None) -> tuple[list[int], int]:
    """Invariant factors > 1 of Z^cols / (row space of the matrix), and its free rank.

    `matrix` has one row per relation and one column per generator; `cols`
    is only needed when there are no rows.
    """
    if not matrix or not matrix[0]:
        width = cols if cols is not None else (len(matrix[0]) if matrix else 0)
        return [], width
    m = [row[:] for row in matrix]
    rows, width = len(m), len(m[0])
    diagonal = []
    k = 0
    # Rows and columns before k are zero off the diagonal, so every operation
    # below touches only rows k.. and columns k..
    while k < min(rows, width):
        best = pivot = None
        for i in range(k, rows):
            for j, x in enumerate(m[i][k:], k):
                if x and (best is None or abs(x) < best):
                    best, pivot = abs(x), (i, j)
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        m[k], m[i] = m[i], m[k]
        block = m[k:]
        for row in block:
            row[k], row[j] = row[j], row[k]
        top = m[k]
        p = top[k]
        # clear the pivot column and row; start over if a remainder is left
        dirty = False
        for row in block[1:]:
            if row[k]:
                q = row[k] // p
                row[k:] = [x - q * y for x, y in zip(row[k:], top[k:])]
                dirty = dirty or row[k] != 0
        for j in range(k + 1, width):
            if top[j]:
                q = top[j] // p
                for row in block:
                    row[j] -= q * row[k]
                dirty = dirty or top[j] != 0
        if dirty:
            continue
        # the pivot must divide the rest of the block; else add an offending row
        offender = next((row for row in block[1:] if any(x % p for x in row[k + 1 :])), None)
        if offender is not None:
            top[k:] = [x + y for x, y in zip(top[k:], offender[k:])]
            continue
        diagonal.append(abs(p))
        k += 1
    return [d for d in diagonal if d != 1], width - len(diagonal)


def hom_dim(factors: list[int], free_rank: int, ell: int) -> int:
    """Dimension over Z/l of Hom(Z^free_rank + sum of Z/f, Z/l): the free rank
    plus the number of factors l divides.  For the cokernel of a matrix whose
    rows are relations, this is dim ker(M mod l)."""
    return free_rank + sum(1 for f in factors if f % ell == 0)
