"""Smith normal form over the integers, with tracked unimodular transforms.

smith_normal_form(M) returns (U, D, V) with U*M*V = D diagonal, the diagonal
entries forming a divisibility chain d1 | d2 | ...  U and V are products of
elementary row/column operations (swaps, negations and adding an integer
multiple of one line to another), so they are unimodular by construction;
the identity U*M*V = D is re-checked by explicit multiplication on every
call.

Entries are arbitrary-precision ints; pivoting is by minimal absolute value,
which keeps intermediate growth tame at the sizes used here (<= ~50 rows).
"""

from __future__ import annotations

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            f = ai[k]
            if f:
                bk = b[k]
                row = out[i]
                for j in range(cols):
                    row[j] += f * bk[j]
    return out


def smith_normal_form(matrix: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*M*V = D in Smith normal form."""
    if not matrix:
        return [], [], []
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0])
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        if i != j:
            m[i], m[j] = m[j], m[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in m:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        # row dst += factor * row src
        for j in range(cols):
            m[dst][j] += factor * m[src][j]
        for j in range(rows):
            u[dst][j] += factor * u[src][j]

    def add_col(src, dst, factor):
        for row in m:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    k = 0
    limit = min(rows, cols)
    while k < limit:
        # find the nonzero pivot of least absolute value in the trailing block
        pivot = None
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                x = m[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        # clear the pivot row and column; restart if a remainder shrinks the pivot
        dirty = False
        for i in range(k + 1, rows):
            if m[i][k]:
                q = m[i][k] // m[k][k]
                add_row(k, i, -q)
                if m[i][k]:
                    dirty = True
        for j in range(k + 1, cols):
            if m[k][j]:
                q = m[k][j] // m[k][k]
                add_col(k, j, -q)
                if m[k][j]:
                    dirty = True
        if dirty:
            continue
        # force divisibility: pivot must divide the whole trailing block
        offender = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if m[i][j] % m[k][k]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, k, 1)
            continue
        if m[k][k] < 0:
            negate_row(k)
        k += 1

    d = m
    product = _mat_mul(_mat_mul(u, [row[:] for row in matrix]), v)
    if product != d:
        raise AssertionError("U*M*V != D: elementary operation bookkeeping broken")
    return u, d, v


def invariant_factors(matrix: Matrix, cols: int | None = None) -> tuple[list[int], int]:
    """Invariant factors > 1 of Z^cols / (row space of the matrix), and its free rank.

    `matrix` has one row per relation and one column per generator; `cols`
    is only needed when there are no rows.
    """
    if not matrix or not matrix[0]:
        width = cols if cols is not None else (len(matrix[0]) if matrix else 0)
        return [], width
    _, d, _ = smith_normal_form(matrix)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    nonzero = [x for x in diag if x != 0]
    return [x for x in nonzero if x != 1], len(matrix[0]) - len(nonzero)


def hom_dim(factors: list[int], free_rank: int, ell: int) -> int:
    """Dimension over Z/l of Hom(Z^free_rank + sum of Z/f, Z/l): the free rank
    plus the number of factors l divides.  For the cokernel of a matrix whose
    rows are relations, this is dim ker(M mod l)."""
    return free_rank + sum(1 for f in factors if f % ell == 0)

