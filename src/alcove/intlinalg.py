"""Exact linear algebra: rational matrices and integer Smith normal form.

Rational matrices (lie's Cartan inverse) are tuples of tuples of Fraction;
dense integer matrices are lists of lists of int, and sparse ones are lists
of columns of (row, coeff) pairs.  Everything here is exact, no floats.

invariant_factors, rank and kernel_basis are dense: each runs column_reduce
on the whole matrix.  invariant_factors and rank have no library caller;
they are kept as the tests' oracle and for the benchmark's tracer, which
names them.
"""

from __future__ import annotations

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


def invariant_factors(columns: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of a sparse integer matrix,
    given as columns of (row, coeff) pairs with nonzero coefficients: the
    diagonal that column_reduce leaves, made a divisibility chain."""
    nrows = 1 + max((i for column in columns for i, _ in column), default=-1)
    D, _ = column_reduce(to_dense(columns, nrows), len(columns))
    diag = [abs(D[t][t]) for t in range(min(nrows, len(columns))) if D[t][t] != 0]
    # replace each pair by (gcd, lcm): once diag[i] has met every later
    # entry it divides them all, and later steps keep that
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag
