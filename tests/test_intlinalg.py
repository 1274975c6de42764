"""invariant_factors on sparse columns against oracles on the dense matrix
that share no code with column_reduce: its determinantal divisors, and its
rank over Q."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from alcove.intlinalg import invariant_factors, to_dense
from alcove.lie import build_lie_data
from alcove.resolution import OrbitComplex


def rational_rank(A):
    """The rank of A over Q, by Gaussian elimination on Fractions."""
    M = [[Fraction(x) for x in row] for row in A]
    k = 0  # the rows above k hold the pivots found so far
    for j in range(len(M[0]) if M else 0):
        p = next((i for i in range(k, len(M)) if M[i][j]), None)
        if p is None:
            continue
        M[k], M[p] = M[p], M[k]
        for i in range(k + 1, len(M)):
            f = M[i][j] / M[k][j]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
        k += 1
    return k


def det(M):
    """The determinant, by Bareiss's fraction-free elimination, in which
    every division is exact."""
    M = [list(row) for row in M]
    n, sign, before = len(M), 1, 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if M[i][k]), None)
        if p is None:
            return 0
        if p != k:
            M[k], M[p], sign = M[p], M[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // before
        before = M[k][k]
    return sign * M[-1][-1]


def determinantal_factors(A, ncols):
    """Oracle: d_1 d_2 ... d_i is the gcd of the i x i minors of A, for i up
    to the rank.  The scan of a size stops once the gcd reaches 1."""
    factors, before = [], 1
    for i in range(1, rational_rank(A) + 1):
        g = 0
        for rows, cols in product(combinations(range(len(A)), i), combinations(range(ncols), i)):
            g = gcd(g, det([[A[r][c] for c in cols] for r in rows]))
            if g == 1:
                break
        factors.append(g // before)
        before = g
    return factors


def columns(A, ncols):
    return [[(i, row[j]) for i, row in enumerate(A) if row[j]] for j in range(ncols)]


def random_matrix(rng, rows, cols, entries):
    return [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]


def with_torsion(rng, rows, cols):
    """U diag(d) V for random unimodular U, V and diagonal entries with
    factors above 1, so that the Smith form has torsion."""
    A = [[0] * cols for _ in range(rows)]
    for t in range(min(rows, cols)):
        A[t][t] = rng.choice((0, 1, 2, 3, 4, 6, 12))
    for _ in range(3 * (rows + cols)):
        q = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5 and rows > 1:
            a, b = rng.sample(range(rows), 2)
            A[a] = [x + q * y for x, y in zip(A[a], A[b])]
        elif cols > 1:
            a, b = rng.sample(range(cols), 2)
            for row in A:
                row[a] += q * row[b]
    return A


def check(A, ncols):
    got = invariant_factors(columns(A, ncols))
    assert got == determinantal_factors(A, ncols), A
    assert all(b % a == 0 for a, b in zip(got, got[1:]))
    return got


def test_sparse_factors_match_dense_oracle_on_random_matrices():
    rng = random.Random(61)
    kinds = {
        "mixed": (0, 0, 0, -2, -1, 1, 2, 3),
        "non-unit": (0, 0, -6, -4, -2, 2, 3, 4, 6),
        "sign": (0, 0, 0, 0, -1, 1),
    }
    for trial in range(600):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        kind = list(kinds)[trial % 4] if trial % 4 < 3 else "torsion"
        if kind == "torsion":
            A = with_torsion(rng, rows, cols)
        else:
            A = random_matrix(rng, rows, cols, kinds[kind])
        check(A, cols)


def test_sparse_factors_keep_torsion():
    rng = random.Random(62)
    seen_torsion = 0
    for _ in range(200):
        A = with_torsion(rng, rng.randint(2, 6), rng.randint(2, 6))
        seen_torsion += any(f > 1 for f in check(A, len(A[0])))
    assert seen_torsion > 100
    # the divisibility fix: diag(4, 6) has factors 2 | 12
    assert invariant_factors([[(0, 4)], [(1, 6)]]) == [2, 12]
    assert invariant_factors([[(0, 2), (1, 2)], [(0, -2), (1, 2)]]) == [2, 4]


@pytest.mark.parametrize("A, ncols", [
    ([], 0), ([], 3), ([[], []], 0), ([[0, 0, 0]], 3), ([[0], [0]], 1),
    ([[5]], 1), ([[-1]], 1), ([[0, 4, -6, 0, 10]], 5), ([[2], [3]], 1),
    ([[1, 1], [1, 1]], 2), ([[1, 2, 0], [0, 2, 2], [0, -2, 4]], 3), ([[1, -1], [1, 1]], 2),
])
def test_sparse_factors_small_cases(A, ncols):
    check(A, ncols)


@pytest.mark.parametrize("name, J, n", [
    ("A2", (0, 1, 2), 4), ("C2", (0, 1), 5), ("G2", (1, 2), 4), ("A3", (0, 1, 2, 3), 3),
])
def test_boundary_matrices_match_dense_oracle(name, J, n):
    # the truncated complexes have no torsion: each boundary matrix has as
    # many invariant factors as its rank over Q, and each is 1
    tc = OrbitComplex(build_lie_data(name), J).truncated(n)
    for p, M in tc.matrices.items():
        dense = to_dense(M, len(tc.bases[p - 1]))
        assert columns(dense, len(M)) == M
        assert invariant_factors(M) == [1] * rational_rank(dense)


def test_to_dense_places_each_entry():
    assert to_dense([[(1, 3)], [], [(0, -1), (2, 2)]], 3) == [[0, 0, -1], [3, 0, 0], [0, 0, 2]]
    assert to_dense([[], []], 0) == []
