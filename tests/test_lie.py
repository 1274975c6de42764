import ast
import itertools
import json
import math
import pickle
import random
import re
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import alcove
from alcove import lie
from alcove.cli import main
from alcove.lie import (
    CheckFailed,
    InvalidLieTypeError,
    LieType,
    OutsideAlcoveError,
    _frac_str,
    _walls_outside,
    alcove_face_of,
    apply_weight,
    b_flat,
    b_sharp,
    basic_pairing,
    build_lie_data,
    cartan_matrix,
    face_data,
    lie_data_to_json,
    pairing,
    positive_roots_of_cartan,
    wall_value,
    weyl_elements,
)

ALL_RANK_LE_8 = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

RANK_LE_2 = ["A1", "A2", "B2", "C2", "G2"]


def nonempty_faces(data):
    from itertools import combinations

    nodes = range(data.rank + 1)
    for size in range(1, data.rank + 2):
        yield from combinations(nodes, size)


# -- LieType parsing ---------------------------------------------------------

def test_parse_basic():
    assert LieType.parse("A1") == LieType("A", 1)
    assert LieType.parse("g2") == LieType("G", 2)
    assert str(LieType.parse("e8")) == "E8"
    # the generated hash: equal types hash alike, also after a pickle round trip
    types = [LieType.parse(t) for t in ("A1", "a1", "A2", "B2", "C2", "A300", "D300")]
    assert len({hash(t) for t in types}) == len(set(types)) == 6
    assert all(pickle.loads(pickle.dumps(t)) == t and hash(pickle.loads(pickle.dumps(t))) == hash(t)
               for t in types)


@pytest.mark.parametrize("bad", ["X9", "A0", "B1", "C1", "D3", "D2", "E9", "F5", "G3", "A", "12"])
def test_parse_rejects(bad):
    with pytest.raises(InvalidLieTypeError):
        LieType.parse(bad)


# -- dual Coxeter numbers ----------------------------------------------------

def test_dual_coxeter_examples():
    # oracle: evaluate 1 + <alpha_max, rho_sharp> from the constructed data
    for name, expect in [("A1", 2), ("A2", 3), ("G2", 4)]:
        d = build_lie_data(name)
        val = 1 + pairing(d.highest_root.weight, d.rho_sharp)
        assert val == expect == d.dual_coxeter


@pytest.mark.parametrize("name", ALL_RANK_LE_8)
def test_dual_coxeter_double_computation(name):
    d = build_lie_data(name)
    formula = 1 + pairing(d.highest_root.weight, d.rho_sharp)
    comark_sum = 1 + sum(d.comarks)
    assert formula == comark_sum == d.dual_coxeter


def test_known_dual_coxeter_table():
    known = {"A3": 4, "B3": 5, "C4": 5, "D5": 8, "E6": 12, "E7": 18, "E8": 30, "F4": 9, "G2": 4}
    for name, h in known.items():
        assert build_lie_data(name).dual_coxeter == h


# -- basic inner product -----------------------------------------------------

def test_basic_pairing_examples():
    a1 = build_lie_data("A1")
    assert basic_pairing(a1, (1,), (1,)) == 2
    assert basic_pairing(a1, (0,), (F(7, 3),)) == 0
    g2 = build_lie_data("G2")
    assert basic_pairing(g2, (1, 0), (1, 0)) == 6  # short coroot
    assert basic_pairing(g2, (0, 1), (0, 1)) == 2  # long coroot
    with pytest.raises(ValueError):
        basic_pairing(a1, (1,), (1, 0))


def test_highest_root_normalized():
    for name in ALL_RANK_LE_8:
        d = build_lie_data(name)
        theta_sharp = b_sharp(d, d.highest_root.weight)
        assert basic_pairing(d, theta_sharp, theta_sharp) == 2


@pytest.mark.parametrize("name", RANK_LE_2 + ["A3", "B3", "C3", "F4"])
def test_coroot_lattice_even(name):
    # B is integer valued and even on the coroot lattice
    from itertools import product

    d = build_lie_data(name)
    for lam in product(range(-2, 3), repeat=d.rank):
        norm = basic_pairing(d, lam, lam)
        assert norm.denominator == 1
        assert int(norm) % 2 == 0


def min_coroot_norm(data, bound):
    from itertools import product

    best = None
    for lam in product(range(-bound, bound + 1), repeat=data.rank):
        if all(x == 0 for x in lam):
            continue
        norm = basic_pairing(data, lam, lam)
        if best is None or norm < best:
            best = norm
    return best


@pytest.mark.parametrize("name", RANK_LE_2 + ["A3", "B3", "C3", "D4", "F4"])
def test_min_coroot_norm_is_two(name):
    assert min_coroot_norm(build_lie_data(name), 3) == 2


# -- b_flat / b_sharp --------------------------------------------------------

def test_flat_sharp_examples():
    a1 = build_lie_data("A1")
    assert b_sharp(a1, (1,)) == (F(1, 2),)
    assert b_flat(a1, (F(1, 4),)) == (F(1, 2),)


def test_flat_sharp_refuse_a_vector_of_the_wrong_rank():
    a2 = build_lie_data("A2")
    for apply in (b_flat, b_sharp):
        for v in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError, match=r"^rank mismatch$"):
                apply(a2, v)


def test_flat_sharp_inverse():
    import random

    rng = random.Random(7)
    for name in RANK_LE_2 + ["B3"]:
        d = build_lie_data(name)
        for _ in range(10):
            mu = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d.rank))
            assert b_flat(d, b_sharp(d, mu)) == mu
            # defining property: <b_flat(xi), alpha_i_vee> = B(xi, alpha_i_vee)
            xi = b_sharp(d, mu)
            flat = b_flat(d, xi)
            for i in range(d.rank):
                e = tuple(1 if j == i else 0 for j in range(d.rank))
                assert pairing(flat, e) == basic_pairing(d, xi, e)


# -- face data ---------------------------------------------------------------

def test_face_data_a1_examples():
    d = build_lie_data("A1")
    f0 = face_data(d, (0,))
    assert f0.rho_I == (F(1),) and f0.nu_I == (F(0),) and f0.weyl_order == 2
    f01 = face_data(d, (0, 1))
    assert f01.rho_I == (F(0),)
    assert f01.nu_I == (F(1, 2),)
    assert f01.nu_I_sharp == (F(1, 4),)
    assert f01.weyl_order == 1
    f1 = face_data(d, (1,))
    assert f1.rho_I == (F(-1),)
    assert f1.nu_I == (F(1),)
    assert f1.nu_I_sharp == (F(1, 2),)


def test_face_data_requires_nonempty():
    d = build_lie_data("A2")
    with pytest.raises(ValueError):
        face_data(d, ())


@pytest.mark.parametrize("name", RANK_LE_2 + ["A3", "B3", "C3"])
def test_nu_sharp_in_relative_interior(name):
    d = build_lie_data(name)
    for I in nonempty_faces(d):
        f = face_data(d, I)
        assert alcove_face_of(d, f.nu_I_sharp) == I
        # h_vee * nu_I == rho - rho_I exactly
        for j in range(d.rank):
            assert d.dual_coxeter * f.nu_I[j] == d.rho[j] - f.rho_I[j]


@pytest.mark.parametrize("name", RANK_LE_2 + ["A3", "B3", "C3", "D4", "F4"])
def test_spinc_integrality_on_coroot_lattice(name):
    # <rho - rho_I, lambda> in Z for lambda in the coroot lattice of the face group
    d = build_lie_data(name)
    for I in nonempty_faces(d):
        f = face_data(d, I)
        diff = tuple(F(r) - ri for r, ri in zip(d.rho, f.rho_I))
        for lam in f.coroot_lattice_basis:
            assert pairing(diff, lam).denominator == 1


@pytest.mark.parametrize("name", RANK_LE_2 + ["A3"])
def test_face_lattice_pairs_integrally_with_vertices(name):
    # B(xi, lambda) in Z for xi a vertex of Delta_I and lambda in Lambda_I
    d = build_lie_data(name)
    for I in nonempty_faces(d):
        f = face_data(d, I)
        for i in I:
            xi = d.alcove_vertices[i]
            for lam in f.coroot_lattice_basis:
                assert basic_pairing(d, xi, lam).denominator == 1


@pytest.mark.parametrize("name", RANK_LE_2 + ["A3", "B3"])
def test_weyl_order_matches_enumeration(name):
    d = build_lie_data(name)
    for I in nonempty_faces(d):
        f = face_data(d, I)
        assert len(weyl_elements(d, I)) == f.weyl_order


# The component formula for |W| and the determinant it needs, used only
# here; moved from alcove.lie and alcove.intlinalg with their bodies unchanged.


def det(M):
    n = len(M)
    A = [[F(x) for x in row] for row in M]
    result = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if A[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            A[col], A[pivot] = A[pivot], A[col]
            result = -result
        result *= A[col][col]
        inv = 1 / A[col][col]
        for r in range(col + 1, n):
            if A[r][col] != 0:
                f = A[r][col] * inv
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return result


def _weyl_order_of_cartan(A):
    """Order of the Weyl group of a finite-type Cartan matrix.

    Uses |W| = prod over connected components of n! * (product of marks of
    the highest root) * det(Cartan), which needs no classification tables.
    """
    n = len(A)
    if n == 0:
        return 1
    unseen = set(range(n))
    order = 1
    while unseen:
        comp = [unseen.pop()]
        queue = list(comp)
        while queue:
            i = queue.pop()
            for j in list(unseen):
                if A[i][j] != 0:
                    unseen.discard(j)
                    comp.append(j)
                    queue.append(j)
        comp.sort()
        sub = [[A[i][j] for j in comp] for i in comp]
        roots = positive_roots_of_cartan(sub)
        marks = roots[-1]
        prod = 1
        for m in marks:
            prod *= m
        comp_det = det(sub)
        assert comp_det.denominator == 1 and comp_det > 0
        order *= math.factorial(len(comp)) * prod * int(comp_det)
    return order


@pytest.mark.parametrize("name", ["A4", "A5", "B4", "C4", "D4", "D5", "E6", "F4"])
def test_weyl_order_matches_component_formula(name):
    """Every face: the order read off the root heights equals the product
    over components of n! * (product of marks) * det(Cartan)."""
    d = build_lie_data(name)
    for I in nonempty_faces(d):
        comp = [i for i in range(d.rank + 1) if i not in I]
        sub = [[pairing(d.node_root[b], d.node_coroot[a]) for b in comp] for a in comp]
        assert face_data(d, I).weyl_order == _weyl_order_of_cartan(sub), I


@pytest.mark.parametrize("name", ALL_RANK_LE_8)
def test_full_weyl_order_classical(name):
    d = build_lie_data(name)
    series, l = d.lie_type.series, d.rank
    expected = {
        "A": math.factorial(l + 1),
        "B": 2**l * math.factorial(l),
        "C": 2**l * math.factorial(l),
        "D": 2 ** (l - 1) * math.factorial(l),
        "E": {6: 51840, 7: 2903040, 8: 696729600}.get(l),
        "F": 1152,
        "G": 12,
    }[series]
    assert face_data(d, (0,)).weyl_order == expected


def test_weyl_orders_known():
    d = build_lie_data("G2")
    assert face_data(d, (0,)).weyl_order == 12
    assert face_data(d, (0, 1, 2)).weyl_order == 1
    assert face_data(build_lie_data("F4"), (0,)).weyl_order == 1152
    assert face_data(build_lie_data("A3"), (0,)).weyl_order == 24
    assert face_data(build_lie_data("B3"), (0,)).weyl_order == 48
    # the extended A3 diagram is a 4-cycle; deleting one node leaves an A3
    # chain, deleting two opposite nodes leaves A1 x A1
    a3 = build_lie_data("A3")
    assert face_data(a3, (2,)).weyl_order == 24
    assert face_data(a3, (0, 2)).weyl_order == 4
    assert len(weyl_elements(a3, (2,))) == 24


@pytest.mark.parametrize("name", RANK_LE_2)
def test_weyl_generators_fix_face_pointwise(name):
    # in the weight picture: a point xi of t is the weight m * b_flat(xi) at
    # level m, for any m that makes it integral
    d = build_lie_data(name)
    for I in nonempty_faces(d):
        f = face_data(d, I)
        points = [b_flat(d, d.alcove_vertices[i]) for i in I] + [f.nu_I]
        for elt in weyl_elements(d, I):
            if elt.length != 1:
                continue
            for mu in points:
                m = math.lcm(*(x.denominator for x in mu))
                nu = tuple(int(m * x) for x in mu)
                assert apply_weight(elt, nu, m) == nu


# -- alcove membership -------------------------------------------------------

def test_alcove_face_of_examples():
    d = build_lie_data("A1")
    assert alcove_face_of(d, (F(1, 4),)) == (0, 1)
    assert alcove_face_of(d, (F(0),)) == (0,)
    assert alcove_face_of(d, (F(1, 2),)) == (1,)


def test_alcove_face_of_outside():
    d = build_lie_data("A1")
    with pytest.raises(OutsideAlcoveError) as exc:
        alcove_face_of(d, (F(3, 4),))
    assert exc.value.wall == 0
    with pytest.raises(OutsideAlcoveError) as exc:
        alcove_face_of(d, (F(-1, 4),))
    assert exc.value.wall == 1


def test_wall_value_range():
    d = build_lie_data("A2")
    with pytest.raises(ValueError):
        wall_value(d, 3, (F(0), F(0)))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "D4"])
def test_faces_and_wall_values_match_fraction_oracle(name):
    # the oracle pairs Fractions directly; alcove_face_of and wall_value read
    # integer wall values over a common denominator
    d = build_lie_data(name)
    rng = random.Random(1313)
    nodes = range(d.rank + 1)
    points = [tuple(F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(d.rank))
              for _ in range(40)]
    # barycentric combinations of the vertices, some on faces of the alcove
    for _ in range(40):
        t = [rng.choice([0, 0, rng.randint(1, 9)]) for _ in nodes]
        t[rng.randrange(len(t))] += 1
        points.append(tuple(
            sum((F(ti, sum(t)) * v[j] for ti, v in zip(t, d.alcove_vertices)), F(0))
            for j in range(d.rank)
        ))
    seen = set()
    for xi in points:
        values = [pairing(d.node_root[i], xi) + (1 if i == 0 else 0) for i in nodes]
        assert [wall_value(d, i, xi) for i in nodes] == values
        negative = [i for i in nodes if values[i] < 0]
        if negative:
            with pytest.raises(OutsideAlcoveError) as exc:
                alcove_face_of(d, xi)
            expect = OutsideAlcoveError(negative[0], values[negative[0]])
            assert (exc.value.wall, exc.value.value, str(exc.value)) == (
                expect.wall, expect.value, str(expect))
        else:
            assert alcove_face_of(d, xi) == tuple(i for i in nodes if values[i] > 0)
        seen.add(bool(negative))
    assert seen == {True, False}


def test_gram_matrices_mutually_inverse():
    from alcove.intlinalg import mat_mul

    for name in RANK_LE_2 + ["F4", "E6"]:
        d = build_lie_data(name)
        (N_c, D_c), (N_w, D_w) = d.gram_coroot_scaled, d.gram_weight_scaled
        # (N_c / D_c)(N_w / D_w) = I, on integers
        prod = mat_mul(N_c, N_w)
        for i in range(d.rank):
            for j in range(d.rank):
                assert prod[i][j] == (D_c * D_w if i == j else 0)


# -- integer root and face data against the Fraction bodies they replace ------

def fraction_gram_matrices(lie_type):
    """Oracle: the Gram matrices of B on the simple coroots and of B-dual on
    the fundamental weights as Fraction matrices, the second by a second
    Gauss-Jordan inverse."""
    from alcove.intlinalg import mat_inv
    from alcove.lie import _symmetrizer, cartan_matrix

    n = lie_type.rank
    A = cartan_matrix(lie_type)
    d = _symmetrizer(A)
    gram_coroot = tuple(tuple(F(A[j][i]) / d[i] for j in range(n)) for i in range(n))
    return gram_coroot, mat_inv(gram_coroot)


def fraction_lie_fields(lie_type):
    """Oracle: the Fraction body of build_lie_data before it moved onto
    integers (root records from d_i A[i][j], gram_weight by a second
    Gauss-Jordan inverse, rho_sharp and h_vee by Fraction dot products), as a
    dict of the LieData fields."""
    from alcove.intlinalg import mat_inv, mat_vec
    from alcove.lie import Root, _scaled_matrix, _symmetrizer, cartan_matrix

    n = lie_type.rank
    A = cartan_matrix(lie_type)
    A_inv = mat_inv(A)
    d = _symmetrizer(A)

    def root_record(coeffs):
        weight = tuple(sum(A[r][j] * coeffs[j] for j in range(n)) for r in range(n))
        half = sum(coeffs[i] * coeffs[j] * d[i] * A[i][j] for i in range(n) for j in range(n)) / 2
        coroot_frac = tuple(coeffs[j] * d[j] / half for j in range(n))
        assert all(c.denominator == 1 for c in coroot_frac), coeffs
        return Root(coeffs, weight, tuple(int(c) for c in coroot_frac), half)

    roots = tuple(root_record(c) for c in positive_roots_of_cartan(A))
    theta = roots[-1]
    assert theta.half_norm == 1
    gram_coroot, gram_weight = fraction_gram_matrices(lie_type)
    rho_sharp = mat_vec(gram_weight, (1,) * n)
    h_vee = 1 + sum(theta.weight[j] * rho_sharp[j] for j in range(n))
    assert h_vee.denominator == 1 and h_vee == 1 + sum(theta.coroot)
    node_root = (tuple(-w for w in theta.weight),) + tuple(
        tuple(A[r][s] for r in range(n)) for s in range(n))
    node_coroot = (tuple(-c for c in theta.coroot),) + tuple(
        tuple(1 if j == s else 0 for j in range(n)) for s in range(n))
    nodes = range(n + 1)
    return {
        "lie_type": lie_type, "rank": n, "cartan": A,
        "positive_roots": roots, "marks": theta.coeffs, "comarks": theta.coroot,
        "rho": (1,) * n, "rho_sharp": rho_sharp, "dual_coxeter": int(h_vee),
        "gram_coroot_scaled": _scaled_matrix(gram_coroot),
        "gram_weight_scaled": _scaled_matrix(gram_weight),
        "node_root": node_root,
        "node_coroot": node_coroot,
        # row i: <alpha_i, alpha_j_vee>, and <alpha_j, alpha_i_vee> then alpha_i_vee
        "weight_table": tuple(
            tuple(int(pairing(node_root[i], node_coroot[j])) for j in nodes) for i in nodes),
        "point_table": tuple(
            tuple(int(pairing(node_root[j], node_coroot[i])) for j in nodes) + node_coroot[i]
            for i in nodes),
        "alcove_vertices": (tuple(F(0) for _ in range(n)),) + tuple(
            tuple(A_inv[s][j] / theta.coeffs[s] for j in range(n)) for s in range(n)),
    }


def fraction_face_fields(data, I):
    """Oracle: the Fraction body of face_data before it moved onto integers
    (sub-Cartan matrix and rho - rho_I by Fraction pairings, nu_I_sharp by
    b_sharp), as a dict of the FaceData fields."""
    from alcove.lie import _weyl_order

    n = data.rank
    comp = tuple(i for i in range(n + 1) if i not in I)
    sub = [[int(pairing(data.node_root[b], data.node_coroot[a])) for b in comp] for a in comp]
    sub_roots = positive_roots_of_cartan(sub)
    half_sum = [F(0)] * n
    for coeffs in sub_roots:
        for a, c in enumerate(coeffs):
            if c:
                for r in range(n):
                    half_sum[r] += F(c, 2) * data.node_root[comp[a]][r]
    rho_I = tuple(half_sum)
    nu_I = tuple((F(r) - ri) / data.dual_coxeter for r, ri in zip(data.rho, rho_I))
    nu_sharp = b_sharp(data, nu_I)
    assert alcove_face_of(data, nu_sharp) == I
    basis = tuple(data.node_coroot[a] for a in comp)
    for lam in basis:
        assert pairing(tuple(F(r) - ri for r, ri in zip(data.rho, rho_I)), lam).denominator == 1
    return {"I": I, "rho_I": rho_I, "nu_I": nu_I, "nu_I_sharp": nu_sharp,
            "coroot_lattice_basis": basis, "weyl_order": _weyl_order(map(sum, sub_roots))}


def typed(value):
    """A value with the type of every leaf, so that 1 and Fraction(1) differ."""
    if isinstance(value, (tuple, list)):
        return [typed(v) for v in value]
    return (type(value), value)


def assert_fields_match(obj, fields):
    from dataclasses import fields as dataclass_fields

    names = [f.name for f in dataclass_fields(obj) if f.compare]
    assert sorted(names) == sorted(fields)
    for name in names:
        assert typed(getattr(obj, name)) == typed(fields[name]), name


@pytest.mark.parametrize("name", ALL_RANK_LE_8 + ["A16"])
def test_integer_root_and_face_data_match_fraction_oracle(name):
    # L, the least integer with L d_i integral, is 1 for A, D, E, 2 for B, C,
    # F4 and 3 for G2; faces: all up to rank 4, |I| <= 2 above, |I| = 1 at A16
    d = build_lie_data(name)
    assert_fields_match(d, fraction_lie_fields(d.lie_type))
    sizes = range(1, d.rank + 2) if d.rank <= 4 else (1, 2) if d.rank <= 8 else (1,)
    for size in sizes:
        for I in itertools.combinations(range(d.rank + 1), size):
            assert_fields_match(face_data(d, I), fraction_face_fields(d, I))


def test_face_data_reads_the_roots_of_the_type(monkeypatch):
    # every face of A5, D5, E6 and F4: the subsystem's roots are read off
    # data.positive_roots, never enumerated again from a sub-Cartan matrix
    datas = [replace(build_lie_data(name), _memo={}) for name in ["A5", "D5", "E6", "F4"]]

    def refuse(A):
        raise AssertionError("face_data enumerated the roots of a subsystem")

    monkeypatch.setattr(lie, "positive_roots_of_cartan", refuse)
    for d in datas:
        for I in nonempty_faces(d):
            face_data(d, I)


# Seams for the checks of the root datum, the face data and the order of a
# W_I: each corrupts one input, a helper of build_lie_data (with the type
# cache emptied, so that the corrupted datum is built and not kept) or one
# field of a copy of the root datum with an empty memo, and returns the call
# whose check must fire.
def simply_laced_b2(monkeypatch):
    # with every d_i = 1, the coroot of alpha_1 + 2 alpha_2 is (1/2, 1)
    monkeypatch.setattr(lie, "_DATA_CACHE", {})
    monkeypatch.setattr(lie, "_symmetrizer", lambda A: (1,) * len(A))
    return lambda: build_lie_data("B2")


def doubled_norms(monkeypatch):
    symmetrizer = lie._symmetrizer
    monkeypatch.setattr(lie, "_DATA_CACHE", {})
    monkeypatch.setattr(lie, "_symmetrizer", lambda A: tuple(2 * d for d in symmetrizer(A)))
    return lambda: build_lie_data("A2")


def doubled_inverse(monkeypatch):
    inverse = lie.mat_inv
    monkeypatch.setattr(lie, "_DATA_CACHE", {})
    monkeypatch.setattr(lie, "mat_inv", lambda M: tuple(tuple(2 * x for x in row) for row in inverse(M)))
    return lambda: build_lie_data("A2")


def b2_without_highest_short_root(monkeypatch):
    # rho_I then misses alpha_1 + alpha_2, and nu_I_sharp leaves the vertex
    d = build_lie_data("B2")
    roots = tuple(r for r in d.positive_roots if r.coeffs != (1, 1))
    return lambda: face_data(replace(d, positive_roots=roots, _memo={}), (0,))


def a2_with_odd_coroot(monkeypatch):
    # 2 (rho - rho_I) = (3, 3) on face (1, 2) pairs oddly with (-1, 0)
    d = build_lie_data("A2")
    return lambda: face_data(replace(d, node_coroot=((-1, 0), *d.node_coroot[1:]), _memo={}), (1, 2))


def a2_with_wrong_order(monkeypatch):
    d = replace(build_lie_data("A2"), _memo={})
    d._memo["face", (0,)] = replace(face_data(d, (0,)), weyl_order=5)
    return lambda: weyl_elements(d, (0,))


@pytest.mark.parametrize("seam, message", [
    (simply_laced_b2, "the coroot of the root (1, 2) is not integral"),
    (doubled_norms, "highest root must be long under B"),
    (doubled_inverse, "dual Coxeter number mismatch"),
    (b2_without_highest_short_root, "B2: nu_I_sharp is not interior to the face (0,)"),
    (a2_with_odd_coroot, "A2: rho - rho_I of (1, 2) is not integral on (-1, 0)"),
    (a2_with_wrong_order, "A2: W_(0,) has 6 elements, not 5"),
], ids=["coroot-integral", "long-highest-root", "dual-coxeter", "face-interior", "rho-integral",
        "weyl-order"])
def test_root_data_check_fires(monkeypatch, seam, message):
    call = seam(monkeypatch)
    with pytest.raises(CheckFailed, match=f"^{re.escape(message)}$"):
        call()


def test_type_string_is_parsed_once(monkeypatch):
    first = build_lie_data("c7")
    assert first is build_lie_data(LieType("C", 7))

    def refuse(text):
        raise AssertionError(f"parsed {text!r} again")

    monkeypatch.setattr(LieType, "parse", refuse)
    assert build_lie_data("c7") is first


def lie_data_json(data):
    """Test-local copy of the former alcove.lie.lie_data_json, body unchanged."""
    return json.dumps(lie_data_to_json(data), indent=2)


@pytest.mark.parametrize("name", ALL_RANK_LE_8 + ["A16", "A20"])
def test_json_gram_strings_match_the_fraction_oracle(name):
    # the integer tables print as the Fraction matrices they replace did
    d = build_lie_data(name)
    doc = lie_data_to_json(d)
    for key, matrix in zip(("gram_coroot", "gram_weight"), fraction_gram_matrices(d.lie_type)):
        assert doc[key] == [[_frac_str(x) for x in row] for row in matrix], key


def test_json_serialization():
    d = build_lie_data("G2")
    doc = json.loads(lie_data_json(d))
    assert doc["dual_coxeter"] == 4
    assert doc["cartan_matrix"] == [[2, -3], [-1, 2]]
    assert doc["gram_coroot"][0][0] == "6"
    assert all("/" in x or x.lstrip("-").isdigit() for row in doc["gram_coroot"] for x in row)


def test_weyl_enumeration_size_guard():
    e8 = build_lie_data("E8")
    with pytest.raises(ValueError, match="not supported"):
        weyl_elements(e8, (0,))
    # order lookup itself stays cheap
    from alcove.lie import face_data as fd

    assert fd(e8, (0,)).weyl_order == 696729600


def test_only_lie_names_the_enumerated_weyl_group():
    """The library computes alternating sums by signed orbit walks: no
    module but lie imports or reads weyl_elements, WeylElt or apply_weight,
    which stay as the tests' reference."""
    names = {"weyl_elements", "WeylElt", "apply_weight"}
    offenders = []
    for path in sorted(Path(alcove.__file__).parent.glob("*.py")):
        if path.stem == "lie":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                used = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            else:
                continue
            offenders += [(path.name, node.lineno, n) for n in sorted(used & names)]
    assert offenders == []


# -- the JSON documents of the CLI ---------------------------------------------

@pytest.mark.parametrize("argv", [
    "lie-info G2 --format json",
    "fusion B2 -k 2 1,0 0,1 --format json",
    "fusion-table C2 -k 3 --format json",
    "orbit C2 -J 0,1 -N 3 --format json",
    "resolution A2 -J 0,1,2 -N 3 --format json",
    "prequant G2 -k 4 --format json",
    "contract A3 -J 0,1,2,3 -N 2 -p 2 --seed 1",
])
def test_cli_json_is_json_dumps_indented(capsys, argv):
    """Each kind of JSON document the CLI prints, and a certificate, has the
    bytes of json.dumps(doc, indent=2) and one newline."""
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# -- root enumeration against the pairing sums it replaced ---------------------

# Oracle: the body of positive_roots_of_cartan before each root carried its
# weight coordinates, summing a Cartan row per root and node.


def row_sum_positive_roots(A):
    n = len(A)
    seen = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = sorted(seen)
    while frontier:
        new = []
        for b in frontier:
            for i in range(n):
                pairing = sum(b[j] * A[i][j] for j in range(n))
                p = 0
                cur = list(b)
                while True:
                    cur[i] -= 1
                    if tuple(cur) in seen:
                        p += 1
                    else:
                        break
                if p - pairing > 0:
                    up = list(b)
                    up[i] += 1
                    t = tuple(up)
                    if t not in seen:
                        seen.add(t)
                        new.append(t)
        frontier = sorted(new)
    return sorted(seen, key=lambda b: (sum(b), b))


@pytest.mark.parametrize("name", ALL_RANK_LE_8 + ["A12", "B11", "D10"])
def test_positive_roots_match_row_sum_oracle(name):
    """The roots of the type and of the subsystem of every face of size <= 2
    (reducible ones included) match the oracle, in the same order."""
    A = cartan_matrix(LieType.parse(name))
    assert positive_roots_of_cartan(A) == row_sum_positive_roots(A)
    d = build_lie_data(name)
    for I in itertools.chain(itertools.combinations(range(d.rank + 1), 1),
                             itertools.combinations(range(d.rank + 1), 2)):
        comp = _walls_outside(d, I)
        sub = [[sum(x * y for x, y in zip(d.node_root[b], d.node_coroot[a])) for b in comp]
               for a in comp]
        assert positive_roots_of_cartan(sub) == row_sum_positive_roots(sub), I
