"""Exact linear algebra: rational matrices and integer Smith normal form.

Rational matrices (lie's Cartan inverse) are tuples of tuples of Fraction;
dense integer matrices are lists of lists of int, and sparse ones are lists
of columns of (row, coeff) pairs.  Everything here is exact, no floats.

invariant_factors works on sparse columns: it eliminates +-1 pivots of least
Markowitz cost, as in Dumas, Heckenbach, Saunders and Welker, "Computing
simplicial homology based on efficient Smith normal form algorithms" (2003),
and hands only what is left to the dense column_reduce.  kernel_basis and
rank stay dense.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Sequence

FracMatrix = tuple[tuple[Fraction, ...], ...]


def mat_vec(M: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in M)


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> FracMatrix:
    n, k, m = len(A), len(B), len(B[0])
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_inv(M: Sequence[Sequence]) -> FracMatrix:
    """Invert a square rational matrix by Gauss-Jordan elimination."""
    n = len(M)
    aug = [
        [Fraction(M[i][j]) for j in range(n)]
        + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (x, y, g) with x*a + y*b == g == gcd(a, b) >= 0
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def column_reduce(A: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (D, T) where D is diagonal (no divisibility normalization) and T
    records the column operations, so that the columns of T indexed by zero
    columns of D form a basis of the integer kernel of A.

    D and T are kept stacked in one list of rows, the m rows of D first, so
    that each column operation is one loop over it; row operations and the
    pivot search read only the first m rows.
    """
    for row in A:
        assert len(row) == ncols
    m, n = len(A), ncols
    M = [list(row) for row in A] + [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_improve(i1: int, i2: int, j: int) -> None:
        a, b = M[i1][j], M[i2][j]
        if b == 0:
            return
        if a == 0:
            M[i1], M[i2] = M[i2], M[i1]
            return
        if b % a == 0:
            q = -(b // a)
            M[i2] = [x + q * y for x, y in zip(M[i2], M[i1])]
            return
        x, y, g = _xgcd(a, b)
        ag, bg = a // g, b // g
        r1, r2 = M[i1], M[i2]
        M[i1] = [x * u + y * v for u, v in zip(r1, r2)]
        M[i2] = [-bg * u + ag * v for u, v in zip(r1, r2)]

    def col_improve(j1: int, j2: int, i: int) -> None:
        a, b = M[i][j1], M[i][j2]
        if b == 0:
            return
        if a == 0:
            for row in M:
                row[j1], row[j2] = row[j2], row[j1]
            return
        if b % a == 0:
            q = -(b // a)
            for row in M:
                row[j2] += q * row[j1]
            return
        x, y, g = _xgcd(a, b)
        ag, bg = a // g, b // g
        for row in M:
            u, v = row[j1], row[j2]
            row[j1] = x * u + y * v
            row[j2] = -bg * u + ag * v

    for t in range(min(m, n)):
        while True:
            pivot = None
            for i in range(t, m):
                for j in range(t, n):
                    if M[i][j] != 0:
                        pivot = (i, j)
                        break
                if pivot:
                    break
            if pivot is None:
                return M[:m], M[m:]
            pi, pj = pivot
            if pi != t:
                M[t], M[pi] = M[pi], M[t]
            if pj != t:
                for row in M:
                    row[t], row[pj] = row[pj], row[t]
            for i in range(t + 1, m):
                row_improve(t, i, t)
            if all(M[t][j] == 0 for j in range(t + 1, n)):
                break
            for j in range(t + 1, n):
                col_improve(t, j, t)
            if all(M[i][t] == 0 for i in range(t + 1, m)):
                break
    return M[:m], M[m:]


def rank(A: Sequence[Sequence[int]], ncols: int) -> int:
    if not A or ncols == 0:
        return 0
    D, _ = column_reduce(A, ncols)
    return sum(1 for t in range(min(len(D), ncols)) if D[t][t] != 0)


def kernel_basis(A: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of the integer kernel {x : A x = 0}, as a list of column vectors."""
    if ncols == 0:
        return []
    if not A:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    D, T = column_reduce(A, ncols)
    m = len(D)
    free = [j for j in range(ncols) if j >= m or D[j][j] == 0]
    return [[T[i][j] for i in range(ncols)] for j in free]


def to_dense(columns: Sequence[Sequence[tuple[int, int]]], nrows: int) -> list[list[int]]:
    """The nrows x len(columns) matrix whose column j has the (row, coeff)
    entries of columns[j]."""
    M = [[0] * len(columns) for _ in range(nrows)]
    for j, column in enumerate(columns):
        for i, v in column:
            M[i][j] = v
    return M


def _eliminate_unit_pivots(
    columns: Sequence[Sequence[tuple[int, int]]],
) -> tuple[int, list[dict[int, int]]]:
    """Pivot on +-1 entries until none is left, each time on one of least
    Markowitz cost (len(column) - 1) * (len(row) - 1).

    A pivot at (i, j) clears row i from the other columns by adding integer
    multiples of column j, then drops row i and column j: the rest is the
    Schur complement, and the step is unimodular, so it contributes exactly
    one invariant factor 1.  Returns the number of pivots and the nonzero
    columns left over, as dicts row -> coeff.
    """
    cols = {j: dict(column) for j, column in enumerate(columns) if column}
    rows: dict[int, set[int]] = {}  # row -> the columns with an entry in it
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    # (cost, column, row) of unit entries; an entry is pushed again whenever
    # its cost may have changed, and stale records are skipped when popped
    heap: list[tuple[int, int, int]] = []

    def push(i: int, j: int) -> None:
        col = cols[j]
        if col[i] in (1, -1):
            heapq.heappush(heap, ((len(col) - 1) * (len(rows[i]) - 1), j, i))

    for j, col in cols.items():
        for i in col:
            push(i, j)
    pivots = 0
    while heap:
        cost, j, i = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or col.get(i) not in (1, -1) or cost != (len(col) - 1) * (len(rows[i]) - 1):
            continue
        del cols[j]
        u = col.pop(i)
        for r in col:
            rows[r].discard(j)
        changed = rows.pop(i)
        changed.discard(j)
        for j2 in changed:
            other = cols[j2]
            q = other.pop(i) * u  # other -= q * col clears row i, as u * u == 1
            for r, v in col.items():
                w = other.get(r, 0) - q * v
                if w:
                    other[r] = w
                    rows[r].add(j2)
                elif r in other:
                    del other[r]
                    rows[r].discard(j2)
            if not other:
                del cols[j2]
        # costs change in the rows of the pivot column and in the columns
        # that met row i
        for r in col:
            for j2 in rows[r]:
                push(r, j2)
        for j2 in changed:
            for r in cols.get(j2, ()):
                push(r, j2)
        pivots += 1
    return pivots, list(cols.values())


def invariant_factors(columns: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of a sparse integer matrix,
    given as columns of (row, coeff) pairs with nonzero coefficients.

    Unit pivots are eliminated first (each gives a factor 1); only the
    columns left over go to the dense column_reduce, restricted to the rows
    they touch.
    """
    units, rest = _eliminate_unit_pivots(columns)
    if not rest:
        return [1] * units
    row_index = {i: t for t, i in enumerate(sorted({i for col in rest for i in col}))}
    dense = to_dense([[(row_index[i], v) for i, v in col.items()] for col in rest], len(row_index))
    D, _ = column_reduce(dense, len(rest))
    diag = [abs(D[t][t]) for t in range(min(len(D), len(rest))) if D[t][t] != 0]
    # fix divisibility: replace pairs by (gcd, lcm) until chained
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return [1] * units + sorted(diag)
