"""invariant_factors on sparse columns against the dense column_reduce route."""

import random
from math import gcd

import pytest

from alcove import intlinalg
from alcove.intlinalg import column_reduce, invariant_factors, to_dense
from alcove.lie import build_lie_data
from alcove.resolution import OrbitComplex


def dense_invariant_factors(A, ncols):
    """Oracle: the dense route, column_reduce on the whole matrix followed by
    the (gcd, lcm) divisibility fix."""
    if not A or ncols == 0:
        return []
    D, _ = column_reduce(A, ncols)
    diag = [abs(D[t][t]) for t in range(min(len(D), ncols)) if D[t][t] != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return sorted(diag)


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
    assert got == dense_invariant_factors(A, ncols), A
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
    ([[1, 1], [1, 1]], 2),
])
def test_sparse_factors_small_cases(A, ncols):
    check(A, ncols)


def test_only_non_unit_pivots_go_to_the_dense_step(monkeypatch):
    sizes = []
    original = intlinalg.column_reduce

    def recording(A, ncols):
        sizes.append((len(A), ncols))
        return original(A, ncols)

    monkeypatch.setattr(intlinalg, "column_reduce", recording)
    # the pivot at (0, 0) clears row 0; rows 1 and 2 of the rest are dense
    A = [[1, 2, 0], [0, 2, 2], [0, -2, 4]]
    assert invariant_factors(columns(A, 3)) == dense_invariant_factors(A, 3) == [1, 2, 6]
    assert sizes[0] == (2, 2)
    sizes.clear()
    assert invariant_factors(columns([[1, -1], [1, 1]], 2)) == [1, 2]
    assert sizes == [(1, 1)]


@pytest.mark.parametrize("name, J, n", [
    ("A2", (0, 1, 2), 4), ("C2", (0, 1), 5), ("G2", (1, 2), 4), ("A3", (0, 1, 2, 3), 3),
])
def test_boundary_matrices_match_dense_oracle(name, J, n):
    tc = OrbitComplex(build_lie_data(name), J).truncated(n)
    for p, M in tc.matrices.items():
        dense = to_dense(M, len(tc.bases[p - 1]))
        assert columns(dense, len(M)) == M
        assert invariant_factors(M) == dense_invariant_factors(dense, len(M))


def test_to_dense_places_each_entry():
    assert to_dense([[(1, 3)], [], [(0, -1), (2, 2)]], 3) == [[0, 0, -1], [3, 0, 0], [0, 0, 2]]
    assert to_dense([[], []], 0) == []
