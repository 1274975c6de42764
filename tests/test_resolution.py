import dataclasses
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from alcove.fusion import LevelRepElt, level_weights
from alcove.intlinalg import invariant_factors, to_dense
from alcove.lie import b_flat, b_sharp, build_lie_data
from alcove.affine import _scaled_crossing_length
from alcove.resolution import (
    CERT_MAX_LENGTH,
    CERT_MAX_RANK,
    ChainElt,
    CheckFailed,
    OrbitComplex,
    certificate_json,
    chain_from_json,
    chain_to_json,
    check_d_squared_zero,
    verify_certificate,
)
from test_fusion import project_to_fusion
from test_intlinalg import index_columns


def all_faces(data):
    nodes = range(data.rank + 1)
    for size in range(1, data.rank + 2):
        yield from itertools.combinations(nodes, size)


# -- bases ---------------------------------------------------------------------

def unscaled(X, D):
    return tuple(F(x, D) for x in X)


def test_basis_examples():
    oc = OrbitComplex(build_lie_data("A1"), (0, 1))
    # keys hold numerators over D: the point 1/4 is (1,) over D = 4
    assert oc.D == 4
    assert oc.basis_elements(1, 0) == [((0, 1), (1,))]
    assert oc.basis_elements(0, 0) == [((0,), (1,)), ((1,), (1,))]
    assert oc.basis_elements(2, 4) == []
    assert oc.basis_elements(-1, 4) == []


def test_negative_length_bound_raises_in_every_degree():
    # OrbitContext.points_up_to holds the one check, and basis_elements asks
    # it before its degree test
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    for p in range(-1, 4):
        with pytest.raises(ValueError, match="^truncation bound -N must be >= 0, not -1$"):
            oc.basis_elements(p, -1)


def test_element_rejects_non_interior():
    oc = OrbitComplex(build_lie_data("A1"), (0, 1))
    with pytest.raises(ValueError):
        oc.element((0,), (F(-1, 4),))


# -- boundary -------------------------------------------------------------------

def test_boundary_examples():
    oc = OrbitComplex(build_lie_data("A1"), (0, 1))
    assert oc.D == 4
    d = oc.boundary(oc.element((0, 1), (F(1, 4),)))
    assert d.terms == {((1,), (1,)): 1, ((0,), (1,)): -1}
    d = oc.boundary(oc.element((0, 1), (F(-1, 4),)))
    assert d.terms == {((1,), (-1,)): 1, ((0,), (1,)): 1}


def test_boundary_squared_zero():
    for name, n in [("A1", 6), ("A2", 4), ("C2", 4), ("A3", 2), ("B3", 2)]:
        data = build_lie_data(name)
        for J in all_faces(data):
            oc = OrbitComplex(data, J)
            for p in range(2, data.rank + 1):
                for key in oc.basis_elements(p, n):
                    c = ChainElt(oc.J, p, {key: 1})
                    assert not oc.boundary(oc.boundary(c))


def test_boundary_degree_zero_rejected():
    oc = OrbitComplex(build_lie_data("A1"), (0, 1))
    with pytest.raises(ValueError):
        oc.boundary(oc.element((0,), (F(1, 4),)))


MALFORMED_KEY_BOUNDARIES = """
from alcove.lie import build_lie_data
from alcove.resolution import ChainElt, OrbitComplex

oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
for key in [((0, 1), (1,)), ((0, 1), (1, 1, 1)), ((0, 7), (1, 1)), ((0, 3), (1, 1)), ((0, 1), (2, -1))]:
    try:
        oc.boundary(ChainElt((0, 1, 2), 1, {key: 1}))
    except ValueError as exc:
        print(exc)
"""


def test_boundary_rejects_malformed_keys_before_any_reduction():
    # a point with too few coordinates once sent the reduction into an
    # endless loop, so the calls run in a child process that a timeout ends
    proc = subprocess.run(
        [sys.executable, "-c", MALFORMED_KEY_BOUNDARIES],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.splitlines() == [
        "key [0, 1], x = [1] has 1 coordinates, not 2",
        "key [0, 1], x = [1, 1, 1] has 3 coordinates, not 2",
        "key [0, 7] has a node outside 0..2",
        "key [0, 3] has a node outside 0..2",
        "key [0, 1], x = [2, -1] is not interior to its cone",
    ]


def test_key_on_a_wall_outside_its_nodes_is_not_interior():
    # the base point (1/3, 1/6) of the A2 face (0, 1) lies on wall 2, which
    # the node set (0,) leaves out
    oc = OrbitComplex(build_lie_data("A2"), (0, 1))
    assert oc.D == 6 and oc.ctx.base == (2, 1)
    with pytest.raises(ValueError, match=r"^key \[0\], x = \[2, 1\] is not interior to its cone$"):
        oc.element((0,), (F(1, 3), F(1, 6)))
    assert oc.element((0, 2), (F(1, 3), F(1, 6))).terms == {((0, 2), (2, 1)): 1}


def test_boundary_checks_each_key_once(monkeypatch):
    # a cycle from another complex: the truncation behind random_cycle has
    # already computed the faces of every basis key of its own complex
    c = OrbitComplex(build_lie_data("A2"), (0, 1, 2)).random_cycle(1, 3, random.Random(3))
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    calls = []
    original = oc._check_key
    monkeypatch.setattr(oc, "_check_key", lambda I, X: calls.append((I, X)) or original(I, X))
    first = oc.boundary(c)
    assert sorted(calls) == sorted(c.terms)
    assert oc.boundary(c) == first and len(calls) == len(c.terms)


# -- augmentation -----------------------------------------------------------------

def test_augmentation_values():
    oc = OrbitComplex(build_lie_data("A1"), (0, 1))
    assert oc.augmentation(oc.element((0,), (F(1, 4),))) == 1
    # length 1 point
    assert oc.augmentation(oc.element((0,), (F(3, 4),))) == -1


def test_augmentation_kills_boundaries():
    for name in ["A1", "A2"]:
        data = build_lie_data(name)
        full = tuple(range(data.rank + 1))
        oc = OrbitComplex(data, full)
        for key in oc.basis_elements(1, 4):
            c = ChainElt(oc.J, 1, {key: 1})
            assert oc.augmentation(oc.boundary(c)) == 0


def test_augmentation_zero_map_off_full_face():
    oc = OrbitComplex(build_lie_data("A1"), (0,))
    for key in oc.basis_elements(0, 3):
        assert oc.augmentation(ChainElt(oc.J, 0, {key: 1})) == 0


# -- homotopy and the chain maps ----------------------------------------------------

def test_homotopy_examples():
    oc = OrbitComplex(build_lie_data("A1"), (0, 1))
    x = (F(1, 4),)
    X = (1,)  # numerators of x over D = 4
    assert oc.D == 4
    assert oc.homotopy(1, oc.element((0,), x)).terms == {((0, 1), X): -1}
    assert oc.homotopy(0, oc.element((1,), x)).terms == {((0, 1), X): 1}
    assert not oc.homotopy(0, oc.element((0,), x))


def test_homotopy_preserves_lengths():
    data = build_lie_data("A2")
    oc = OrbitComplex(data, (0, 1, 2))
    for key in oc.basis_elements(0, 3):
        h = oc.homotopy(2, ChainElt(oc.J, 0, {key: 1}))
        for _, x in h.terms:
            assert oc.length_of(x) == oc.length_of(key[1])


def test_deform_is_chain_map():
    # A_i d = d A_i on basis elements
    for name, n in [("A2", 4), ("C2", 3)]:
        data = build_lie_data(name)
        for J in [(0,), tuple(range(data.rank + 1))]:
            oc = OrbitComplex(data, J)
            for p in range(1, data.rank + 1):
                for key in oc.basis_elements(p, n):
                    c = ChainElt(oc.J, p, {key: 1})
                    for i in range(data.rank + 1):
                        assert oc.boundary(oc.deform(i, c)) == oc.deform(i, oc.boundary(c))


def test_deform_all_lowers_length_interior():
    for name, n in [("A2", 4), ("C2", 4)]:
        data = build_lie_data(name)
        for J in [(0,), tuple(range(data.rank + 1))]:
            oc = OrbitComplex(data, J)
            for p in range(1, data.rank):
                for key in oc.basis_elements(p, n):
                    c = ChainElt(oc.J, p, {key: 1})
                    out = oc.deform_all(c)
                    bound = oc.length_of(key[1])
                    # strict drop; in particular A kills length-0 elements
                    for (_, x), _coeff in out.terms.items():
                        assert oc.length_of(x) < bound


def test_deform_case_split():
    # i in I with x outside the smaller cone: A_i fixes the element modulo
    # strictly shorter keys
    data = build_lie_data("A2")
    oc = OrbitComplex(data, (0, 1, 2))
    from alcove.affine import cone_position

    checked = 0
    for p in (1, 2):
        for I, x in oc.basis_elements(p, 3):
            for i in I:
                sub = tuple(j for j in I if j != i)
                if not sub:
                    continue
                if cone_position(data, unscaled(x, oc.D), sub) == "interior":
                    continue
                c = ChainElt(oc.J, p, {(I, x): 1})
                diff = oc.deform(i, c) - c
                for (_, y), _ in diff.terms.items():
                    assert oc.length_of(y) < oc.length_of(x)
                checked += 1
    assert checked > 0


# -- contraction ------------------------------------------------------------------

def test_contract_zero():
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    out = oc.contract_cycle(ChainElt(oc.J, 1))
    assert not out and out.degree == 2


def test_contract_rejects_noncycle():
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    key = oc.basis_elements(1, 2)[0]
    with pytest.raises(ValueError):
        oc.contract_cycle(ChainElt(oc.J, 1, {key: 1}))


def test_contract_rejects_bad_degree():
    oc = OrbitComplex(build_lie_data("A1"), (0, 1))
    with pytest.raises(ValueError):
        oc.contract_cycle(ChainElt(oc.J, 1))


def test_contract_boundaries_of_random_chains():
    rng = random.Random(99)
    data = build_lie_data("A2")
    oc = OrbitComplex(data, (0, 1, 2))
    basis2 = oc.basis_elements(2, 3)
    for _ in range(15):
        picks = rng.sample(basis2, min(3, len(basis2)))
        b0 = ChainElt(oc.J, 2, {k: rng.randint(-2, 2) for k in picks})
        c = oc.boundary(b0)
        b = oc.contract_cycle(c)
        assert oc.boundary(b) == c


def test_contract_kernel_cycles():
    rng = random.Random(5)
    for name, J, n in [("A2", (0, 1, 2), 4), ("C2", (0, 2), 3), ("G2", (0, 1, 2), 3)]:
        data = build_lie_data(name)
        oc = OrbitComplex(data, J)
        for _ in range(8):
            c = oc.random_cycle(1, n, rng)
            b = oc.contract_cycle(c)
            assert oc.boundary(b) == c


# -- truncated complex ---------------------------------------------------------------

def test_truncated_matrix_example():
    oc = OrbitComplex(build_lie_data("A1"), (0, 1))
    tc = oc.truncated(0)
    # the boundary of the one degree-1 basis element, face -> sign: the
    # dense matrix [[-1], [1]] over the degree-0 basis
    assert tc.bases[0] == [((0,), (1,)), ((1,), (1,))]
    assert tc.matrices[1] == [{((0,), (1,)): -1, ((1,), (1,)): 1}]


def test_truncated_basis_sizes_match_enumeration():
    from alcove.affine import cone_position, orbit_up_to_length

    data = build_lie_data("A1")
    oc = OrbitComplex(data, (0, 1))
    tc = oc.truncated(2)
    pts = orbit_up_to_length(data, (0, 1), 2)
    for p in (0, 1):
        expect = 0
        for I in itertools.combinations((0, 1), p + 1):
            expect += sum(
                1 for op in pts if cone_position(data, op.point, I) == "interior"
            )
        assert len(tc.bases[p]) == expect


# -- homology reports ------------------------------------------------------------------

def test_homology_a1_all_faces():
    data = build_lie_data("A1")
    for J in [(0,), (1,), (0, 1)]:
        rep = OrbitComplex(data, J).homology_report(4)
        assert rep["all_ok"], rep
        assert rep["H0"] == ("Z" if J == (0, 1) else "0")


def test_homology_examples():
    rep = OrbitComplex(build_lie_data("A2"), (0,)).homology_report(3)
    assert rep["all_ok"]
    assert [d["verdict"] for d in rep["degrees"]] == ["H0=0", "exact", "injective"]
    rep = OrbitComplex(build_lie_data("A2"), (0, 1, 2)).homology_report(3)
    assert rep["all_ok"]
    assert rep["degrees"][0]["verdict"] == "H0=Z"


def test_homology_requires_positive_bound():
    with pytest.raises(ValueError):
        OrbitComplex(build_lie_data("A1"), (0, 1)).homology_report(0)


# -- unit chain map and the augmentation vs fusion dictionary ---------------------------

def test_augmentation_matches_fusion_projection():
    # over the regular orbit of a rho-shifted level weight, the degree-0
    # augmentation computes the sign of the projection to the fusion ring
    for name, k in [("A1", 2), ("A2", 1)]:
        data = build_lie_data(name)
        m = k + data.dual_coxeter
        full = tuple(range(data.rank + 1))
        for mu in level_weights(data, k):
            shifted = tuple(x + 1 for x in mu)
            base = tuple(x / m for x in b_sharp(data, shifted))
            oc = OrbitComplex(data, full, base=base)
            for I, x in oc.basis_elements(0, 3):
                nu = tuple(m * v for v in b_flat(data, unscaled(x, oc.D)))
                assert all(v.denominator == 1 for v in nu)
                nu = tuple(int(v) for v in nu)
                phi = LevelRepElt(data, I, k, {tuple(a - 1 for a in nu): 1})
                proj = project_to_fusion(phi)
                sign = (-1) ** oc.length_of(x)
                assert proj.terms == {mu: sign}
                assert oc.augmentation(ChainElt(oc.J, 0, {(I, x): 1})) == sign


# -- certificates --------------------------------------------------------------------

def test_certificate_roundtrip():
    rng = random.Random(7)
    data = build_lie_data("A2")
    oc = OrbitComplex(data, (0, 1, 2))
    c = oc.random_cycle(1, 3, rng)
    b = oc.contract_cycle(c)
    text = certificate_json(oc, c, b)
    result = verify_certificate(text)
    assert result["ok"]


def test_certificate_tamper_detected():
    import json as _json

    rng = random.Random(8)
    data = build_lie_data("A2")
    oc = OrbitComplex(data, (0, 1, 2))
    c = oc.random_cycle(1, 3, rng)
    while not c:
        c = oc.random_cycle(1, 3, rng)
    b = oc.contract_cycle(c)
    doc = _json.loads(certificate_json(oc, c, b))
    doc["bounding"][0]["coeff"] += 1
    with pytest.raises(ValueError):
        verify_certificate(_json.dumps(doc))
    doc = _json.loads(certificate_json(oc, c, b))
    doc["cycle"][0]["x"] = [5, 5]
    with pytest.raises(ValueError):
        verify_certificate(_json.dumps(doc))


@pytest.mark.parametrize("degree", [-1, 0, 2, 7])
def test_certificate_degree_out_of_range_rejected(degree):
    import json as _json

    doc = {"group": "A2", "J": [0, 1, 2], "degree": degree, "D": 3, "cycle": [], "bounding": []}
    with pytest.raises(ValueError, match="degree"):
        verify_certificate(_json.dumps(doc))
    doc["degree"] = 1
    assert verify_certificate(_json.dumps(doc))["ok"]


def test_chain_json_roundtrip():
    oc = OrbitComplex(build_lie_data("A1"), (0, 1))
    c = oc.element((0, 1), (F(-1, 4),), 3)
    doc = chain_to_json(c)
    assert oc.D == 4 and doc == [{"I": [0, 1], "x": [-1], "coeff": 3}]
    back = chain_from_json(oc.J, 1, doc)
    assert back == c


def test_deform_preserves_cycles():
    rng = random.Random(21)
    data = build_lie_data("A2")
    oc = OrbitComplex(data, (0, 1, 2))
    for _ in range(6):
        c = oc.random_cycle(1, 3, rng)
        for i in range(data.rank + 1):
            moved = oc.deform(i, c)
            assert not oc.boundary(moved)
            # on a cycle, A_i c = c - d(h_i c)
            assert moved == c - oc.boundary(oc.homotopy(i, c))


@pytest.mark.parametrize("I", [(1, 0), (0, 0), (2, 1, 0), (0, 0, 1)])
def test_chain_key_must_be_strictly_increasing(I):
    # the constructor never reorders or merges node sets; it refuses them,
    # before the size check
    nodes = ", ".join(map(str, I))
    with pytest.raises(ValueError, match=rf"^chain key \[{nodes}\] is not strictly increasing$"):
        ChainElt((0, 1), 1, {(I, (1,)): 2})
    assert ChainElt((0, 1), 1, {((0, 1), (1,)): 2}).terms == {((0, 1), (1,)): 2}
    with pytest.raises(ValueError, match="wrong size"):
        ChainElt((0, 1), 1, {((0, 1, 2), (1,)): 2})


def test_homology_independent_of_base_point():
    # any interior point of the face gives the same truncated complex shape
    data = build_lie_data("A2")
    full = (0, 1, 2)
    mu = (1, 0)
    m = 1 + data.dual_coxeter
    base = tuple(x / m for x in b_sharp(data, tuple(a + 1 for a in mu)))
    default = OrbitComplex(data, full).homology_report(3)
    shifted = OrbitComplex(data, full, base=base).homology_report(3)
    assert default["all_ok"] and shifted["all_ok"]
    assert [d["dim"] for d in default["degrees"]] == [
        d["dim"] for d in shifted["degrees"]
    ]
    assert [d["rank_ker"] for d in default["degrees"]] == [
        d["rank_ker"] for d in shifted["degrees"]
    ]


def test_homology_larger_truncations():
    # exactness must not be an artifact of small bounds; the alternating sum
    # of dimensions then equals 1 (full face) or 0 (proper face)
    configs = [
        ("A2", (0, 1, 2), 6, 1),
        ("A2", (1,), 6, 0),
        ("C2", (0, 1, 2), 6, 1),
        ("G2", (0, 1, 2), 4, 1),
        ("G2", (1, 2), 4, 0),
        ("B3", (0, 1, 2, 3), 3, 1),
    ]
    for name, J, n, euler in configs:
        rep = OrbitComplex(build_lie_data(name), J).homology_report(n)
        assert rep["all_ok"], (name, J, rep)
        dims = [d["dim"] for d in rep["degrees"]]
        assert sum((-1) ** i * d for i, d in enumerate(dims)) == euler


@pytest.mark.parametrize("J", [[0, 0, 1], [1, 1], [0, 1, 2, 2]])
def test_certificate_repeated_face_node_rejected(J):
    import json as _json

    doc = {"group": "A2", "J": J, "degree": 1, "cycle": [], "bounding": []}
    with pytest.raises(ValueError, match="repeats a node"):
        verify_certificate(_json.dumps(doc))


def test_certificate_echoes_canonical_face():
    import json as _json

    doc = {"group": "A2", "J": [2, 1], "degree": 1, "D": 2, "cycle": [], "bounding": []}
    assert verify_certificate(_json.dumps(doc))["J"] == [1, 2]
    rng = random.Random(11)
    oc = OrbitComplex(build_lie_data("A2"), (2, 0, 1))
    c = oc.random_cycle(1, 3, rng)
    doc = _json.loads(certificate_json(oc, c, oc.contract_cycle(c)))
    doc["J"] = [2, 0, 1]
    assert verify_certificate(_json.dumps(doc))["J"] == [0, 1, 2]


def contract_certificate_a2():
    """The certificate that `contract A2 -J 0,1,2 -N 3 --seed 5` prints."""
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    cycle = oc.random_cycle(1, 3, random.Random(5), max_terms=4)
    return certificate_json(oc, cycle, oc.contract_cycle(cycle))


@pytest.mark.parametrize("I", [[1, 0, 0], [1, 0], [0, 0]])
def test_certificate_non_canonical_chain_key_rejected(I):
    import json as _json

    text = contract_certificate_a2()
    assert verify_certificate(text)["ok"]
    doc = _json.loads(text)
    assert doc["cycle"][0]["I"] == [0, 1]
    doc["cycle"][0]["I"] = I
    with pytest.raises(ValueError, match="not strictly increasing"):
        verify_certificate(_json.dumps(doc))


def cold_a2(monkeypatch):
    """One A2 datum with an empty memo, which verify_certificate builds its
    complex on: no complex that an earlier test stored takes part."""
    from alcove import resolution

    cold = dataclasses.replace(build_lie_data("A2"), _memo={})
    monkeypatch.setattr(resolution, "build_lie_data", lambda lie_type: cold)
    return cold


def test_verify_certificate_checks_each_key_once(monkeypatch):
    # the first verification checks every key once; the second finds them
    # all stored in the one complex of (A2, J) and checks none
    text = contract_certificate_a2()
    doc = json.loads(text)
    cold_a2(monkeypatch)
    calls = []
    original = OrbitComplex._check_key

    def counting(self, I, X):
        calls.append((I, X))
        return original(self, I, X)

    monkeypatch.setattr(OrbitComplex, "_check_key", counting)
    assert verify_certificate(text)["ok"]
    assert len(calls) == len(set(calls)) == len(doc["cycle"]) + len(doc["bounding"]) == 18
    calls.clear()
    assert verify_certificate(text)["ok"]
    assert calls == []


def test_verify_certificate_computes_each_key_wall_vector_once(monkeypatch):
    # the key check's start vector serves the interior test, the orbit
    # reduction and the key's faces; the first verification computes it once
    # for each key whose point the orbit walk has not reached, which in a
    # new complex is every key off the base point, and the second, whose
    # keys are all stored, computes none
    from alcove import resolution

    text = contract_certificate_a2()
    doc = json.loads(text)
    cold_a2(monkeypatch)
    calls = []
    original = resolution._scaled_walls

    def counting(data, X, D):
        calls.append(X)
        return original(data, X, D)

    monkeypatch.setattr(resolution, "_scaled_walls", counting)
    assert verify_certificate(text)["ok"]
    keys = [(tuple(item["I"]), tuple(item["x"])) for chain in ("cycle", "bounding") for item in doc[chain]]
    assert len(keys) == len(set(keys))
    ctx = OrbitComplex(build_lie_data("A2"), (0, 1, 2)).ctx
    off_base = [X for _, X in keys if X != ctx.base]
    assert (len(keys), len(off_base)) == (18, 14)
    assert sorted(map(tuple, calls)) == sorted(off_base)
    calls.clear()
    assert verify_certificate(text)["ok"]
    assert calls == []


def test_one_memo_complex_per_canonical_face(monkeypatch):
    # J written as [2, 0, 1] and as [0, 1, 2] names one face, so one complex
    text = contract_certificate_a2()
    cold = cold_a2(monkeypatch)
    doc = json.loads(text)
    for J in ([2, 0, 1], [0, 1, 2], [1, 2, 0]):
        assert verify_certificate(json.dumps({**doc, "J": J}))["J"] == [0, 1, 2]
    complexes = [key for key in cold._memo if key[0] == "complex"]
    assert complexes == [("complex", (0, 1, 2))]
    assert cold._memo["complex", (0, 1, 2)].J == (0, 1, 2)


@pytest.mark.parametrize("J, message", [
    ([0, 0, 1], "face [0, 0, 1] repeats a node"),
    ([2, 1, 2], "face [2, 1, 2] repeats a node"),
    ([0, 3], "face index (0, 3) out of range 0..2"),
    ([-1, 0], "face index (-1, 0) out of range 0..2"),
    ([], "face index must be nonempty"),
])
def test_refused_face_stores_no_complex(monkeypatch, J, message):
    cold = cold_a2(monkeypatch)
    doc = {**json.loads(contract_certificate_a2()), "J": J}
    with pytest.raises(ValueError) as exc:
        verify_certificate(json.dumps(doc))
    assert str(exc.value) == f"malformed certificate: {message}"
    assert not [key for key in cold._memo if key[0] == "complex"]


@pytest.mark.parametrize("I", [[1, 0], [0, 0, 1], [2, 2]])
def test_chain_from_json_rejects_unsorted_or_repeated_key(I):
    doc = [{"I": I, "x": [1, 1], "coeff": 1}]
    with pytest.raises(ValueError, match="not strictly increasing"):
        chain_from_json((0, 1, 2), 1, doc)


# -- sparse d o d check, truncation cache, one reduction per matrix ------------------

def dense_product(A, B):
    """Oracle: the dense integer matrix product."""
    return [[sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]) if B else 0)]
            for i in range(len(A))]


def chains(A, ncols=None):
    """The columns of a dense integer matrix as chains over integer keys:
    key j -> {row i: entry} without zero entries."""
    ncols = len(A[0]) if ncols is None else ncols
    return {j: {i: row[j] for i, row in enumerate(A) if row[j]} for j in range(ncols)}


def check_product(A, B, ncols=None):
    """check_d_squared_zero on d_{p-1} = A and d_p = B, over the integer
    keys of chains(); the caller names keys by str (integer_key_witness)."""
    check_d_squared_zero(chains(A, len(B)), chains(B, ncols).items(), 2)


@pytest.fixture
def integer_key_witness(monkeypatch):
    """The d o d witness names chain keys as certificates write them; the
    integer keys of chains() are named by str instead."""
    from alcove import resolution

    monkeypatch.setattr(resolution, "_cell_str", str)


DD_WITNESS = re.compile(
    r"^d composed with d is nonzero at degree 2: the boundary of the boundary of (\d+) "
    r"has coefficient (-?\d+) at (\d+)$"
)


def random_matrix(rng, rows, cols):
    return [[rng.choice((0, 0, 0, -2, -1, 1, 2)) for _ in range(cols)] for _ in range(rows)]


def zero_product_pair(rng, m, k1, k2, n):
    """A = [A1 | 0] and B = [0 ; B2] with random blocks, so A B = 0."""
    A = [row + [0] * k2 for row in random_matrix(rng, m, k1)]
    B = [[0] * n for _ in range(k1)] + random_matrix(rng, k2, n)
    return A, B


def with_one_entry(rng, A, B, i, j):
    """Insert an inner index t joining row i of A to column j of B, so that
    the product gains exactly one nonzero entry, at (i, j)."""
    t = rng.randrange(len(B) + 1)
    a, b = rng.choice((-2, -1, 1, 3)), rng.choice((-1, 1, 2))
    A = [row[:t] + [a if r == i else 0] + row[t:] for r, row in enumerate(A)]
    B = B[:t] + [[b if c == j else 0 for c in range(len(B[0]))]] + B[t:]
    return A, B


def test_d_squared_check_matches_dense_oracle(integer_key_witness):
    rng = random.Random(31)
    for trial in range(300):
        m, k, n = rng.randint(1, 6), rng.randint(0, 6), rng.randint(1, 6)
        if trial % 2:
            k1 = rng.randint(0, k)
            A, B = zero_product_pair(rng, m, k1, k - k1, n)
        else:
            A, B = random_matrix(rng, m, k), random_matrix(rng, k, n)
        if not B:
            continue
        product = dense_product(A, B)
        nonzero = any(v for row in product for v in row)
        if not nonzero:
            check_product(A, B, n)
            continue
        with pytest.raises(CheckFailed) as info:
            check_product(A, B, n)
        j, v, i = map(int, DD_WITNESS.match(str(info.value)).groups())
        assert product[i][j] == v != 0


def test_d_squared_check_finds_a_single_nonzero_entry(integer_key_witness):
    rng = random.Random(32)
    tc = OrbitComplex(build_lie_data("A2"), (0, 1, 2)).truncated(3)
    pairs = [tuple(to_dense(index_columns(tc, p), len(tc.bases[p - 1])) for p in (1, 2))]
    pairs += [zero_product_pair(rng, rng.randint(1, 8), 3, 4, rng.randint(1, 8)) for _ in range(20)]
    for A, B in pairs:
        check_product(A, B)
        for _ in range(10):
            i, j = rng.randrange(len(A)), rng.randrange(len(B[0]))
            A1, B1 = with_one_entry(rng, A, B, i, j)
            product = dense_product(A1, B1)
            assert [(r, c) for r, row in enumerate(product) for c, v in enumerate(row) if v] == [(i, j)]
            with pytest.raises(CheckFailed) as info:
                check_product(A1, B1)
            assert DD_WITNESS.match(str(info.value)).groups() == (str(j), str(product[i][j]), str(i))


@pytest.mark.parametrize("p, max_terms, message", [
    (3, 4, "degree p must be between 0 and 2, not 3"),
    (-1, 4, "degree p must be between 0 and 2, not -1"),
    (1, -1, "max_terms must be >= 0, not -1"),
])
def test_random_cycle_checks_its_arguments(p, max_terms, message):
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    with pytest.raises(ValueError, match=re.escape(message)):
        oc.random_cycle(p, 2, random.Random(1), max_terms)
    for p in range(3):
        assert oc.random_cycle(p, 2, random.Random(1), 0).degree == p
        assert not oc.random_cycle(p, 2, random.Random(1), 0)


def test_truncated_is_cached():
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    assert oc.truncated(2) is oc.truncated(2)
    assert oc.truncated(3) is not oc.truncated(2)


@pytest.mark.parametrize("name, J, n", [("A2", (0, 1, 2), 3), ("C2", (0, 1), 4), ("A3", (0, 1, 2, 3), 3),
                                        ("G2", (1, 2), 4)])
def test_truncation_holds_the_stored_faces(name, J, n):
    # d_p is the list of the complex's stored boundaries of the degree-p
    # keys, in basis order: the same dicts, not copies
    oc = OrbitComplex(build_lie_data(name), J)
    tc = oc.truncated(n)
    assert sorted(tc.matrices) == list(range(1, oc.data.rank + 1))
    for p, M in tc.matrices.items():
        assert len(M) == len(tc.bases[p])
        for j, faces in enumerate(M):
            assert faces is oc._faces[tc.bases[p][j]]


def test_truncation_reuses_faces_stored_by_boundary(monkeypatch):
    # boundary() stores the faces of each key it meets; the truncation built
    # after it computes the faces of every other basis key once, and of
    # those keys not again
    from alcove import resolution

    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    keys = oc.basis_elements(1, 3)[::3] + oc.basis_elements(2, 3)[::4]
    for key in keys:
        oc.boundary(ChainElt(oc.J, len(key[0]) - 1, {key: 1}))
    stored = dict(oc._faces)
    assert set(stored) == set(keys)
    calls = []
    original = resolution.OrbitComplex._store_faces
    monkeypatch.setattr(resolution.OrbitComplex, "_store_faces",
                        lambda self, key, start: calls.append(key) or original(self, key, start))
    tc = oc.truncated(3)
    basis = [key for b in tc.bases[1:] for key in b]
    assert sorted(calls) == sorted(set(basis) - set(keys))
    assert all(oc._faces[key] is stored[key] for key in keys)
    fresh = OrbitComplex(build_lie_data("A2"), (0, 1, 2)).truncated(3)
    assert tc.matrices == fresh.matrices


def corrupt_a_stored_face(oc, n):
    """Store the faces of the first degree-2 key of the length-n truncation
    with the first coefficient doubled, as boundary() would store them."""
    key = oc.basis_elements(2, n)[0]
    faces = oc._store_faces(key, oc._check_key(*key))
    faces[next(iter(faces))] *= 2


def corrupted_d_squared_witnesses(data, J, n):
    """Oracle: every witness the d o d = 0 check may give for the complex
    that corrupt_a_stored_face leaves, one per nonzero entry of d d key in
    the dense product of the matrices of a fresh complex."""
    oc = OrbitComplex(data, J)
    tc = oc.truncated(n)
    key = tc.bases[2][0]
    face = next(iter(oc._faces[key]))
    A, B = (to_dense(index_columns(tc, p), len(tc.bases[p - 1])) for p in (1, 2))
    B[tc.bases[1].index(face)][0] *= 2
    nonzero = [(i, row[0]) for i, row in enumerate(dense_product(A, B)) if row[0]]
    assert nonzero
    return {
        "d composed with d is nonzero at degree 2: the boundary of the boundary of "
        f"{cell_str(key)} has coefficient {v} at {cell_str(tc.bases[0][i])}"
        for i, v in nonzero
    }


def test_truncation_checks_d_squared_on_faces_stored_before_it():
    # a stored boundary is not recomputed, so one that is wrong fails the
    # d o d = 0 check of the truncation, which names the key, the face key
    # and the value
    data = build_lie_data("A2")
    witnesses = corrupted_d_squared_witnesses(data, (0, 1, 2), 3)
    oc = OrbitComplex(data, (0, 1, 2))
    corrupt_a_stored_face(oc, 3)
    with pytest.raises(CheckFailed) as info:
        oc.truncated(3)
    assert str(info.value) in witnesses
    assert 3 not in oc._truncations


def test_resolution_exits_4_on_a_corrupted_stored_face(capsys, monkeypatch):
    # the same corruption through the CLI: exit 4, the witness on stderr
    from alcove import resolution
    from alcove.cli import main

    witnesses = corrupted_d_squared_witnesses(build_lie_data("A2"), (0, 1, 2), 3)
    original = resolution.OrbitComplex.truncated

    def corrupted(self, n):
        corrupt_a_stored_face(self, n)
        return original(self, n)

    monkeypatch.setattr(resolution.OrbitComplex, "truncated", corrupted)
    code = main(["resolution", "A2", "-J", "0,1,2", "-N", "3"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.removeprefix("check failed: ").removesuffix("\n") in witnesses
    assert "Traceback" not in err


@pytest.mark.parametrize("name, J, n, p", [("A2", (0, 1, 2), 3, 1), ("C2", (0, 1), 3, 1),
                                           ("A3", (0, 1, 2, 3), 2, 2)])
def test_cached_truncation_not_mutated(name, J, n, p):
    data = build_lie_data(name)
    oc = OrbitComplex(data, J)
    oc.homology_report(n)
    rng = random.Random(5)
    for _ in range(3):
        oc.random_cycle(p, n, rng)
    cached, fresh = oc.truncated(n), OrbitComplex(data, J).truncated(n)
    assert cached.bases == fresh.bases
    assert cached.matrices == fresh.matrices


def test_homology_report_calls_no_smith_normal_form(monkeypatch):
    # the ranks come from the checked Morse matching: neither
    # invariant_factors nor column_reduce runs, at any binding
    from alcove import intlinalg, resolution

    calls = []
    for module in (intlinalg, resolution):
        for attr in ("invariant_factors", "column_reduce"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, lambda *args, attr=attr: calls.append(attr))
    for name, J, n in [("A2", (0, 1, 2), 3), ("C2", (0, 1), 4), ("A3", (0, 1, 2, 3), 2), ("G2", (1, 2), 4)]:
        assert OrbitComplex(build_lie_data(name), J).homology_report(n)["all_ok"]
    assert calls == []


def test_homology_report_reads_wall_values_off_the_orbit_walk(monkeypatch):
    # the walk computes the base point's wall values; the bases and the
    # faces of every orbit point read theirs off the walk's vectors
    from alcove import affine, resolution

    calls = []
    for module in (affine, resolution):
        original = module._scaled_walls

        def counting(data, X, D, original=original):
            calls.append(X)
            return original(data, X, D)

        monkeypatch.setattr(module, "_scaled_walls", counting)
    oc = OrbitComplex(build_lie_data("A3"), (0, 1, 2, 3))
    assert oc.homology_report(5)["all_ok"]
    assert len(oc.ctx._length) == 121
    assert len(calls) <= 1


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D4", "F4",
                                  "A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"])
def test_homology_exact_on_every_face_of_rank_4(name):
    # every face of rank 4 at N = 3, and of rank <= 3 at N = 5; building each
    # truncation also checks d o d = 0 on every entry.  Smith normal form is
    # the oracle: the ranks of the checked matching are the numbers of
    # invariant factors, and every factor is 1
    data = build_lie_data(name)
    n = 3 if data.rank == 4 else 5
    for J in all_faces(data):
        oc = OrbitComplex(data, J)
        rep = oc.homology_report(n)
        assert rep["all_ok"], (name, J, rep)
        tc = oc.truncated(n)
        factors = {p: invariant_factors(index_columns(tc, p)) for p in tc.matrices}
        assert all(f == 1 for fs in factors.values() for f in fs), (name, J)
        assert [d["rank_im_above"] for d in rep["degrees"]] == [
            len(factors.get(p + 1, [])) for p in range(data.rank + 1)
        ], (name, J)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_checked_matching_leaves_one_critical_cell_on_the_full_face(name):
    # homology_report compares no ranks: once the matching has passed,
    # rank_ker - rank_im_above counts the critical cells of each degree,
    # the base point in degree 0 of the full face and nothing else
    data = build_lie_data(name)
    for J in all_faces(data):
        for n in range(1, 5):
            rep = OrbitComplex(data, J).homology_report(n)
            excess = [d["rank_ker"] - d["rank_im_above"] for d in rep["degrees"]]
            assert excess == [int(J == tuple(range(data.rank + 1)))] + [0] * data.rank, (name, J, n)


def test_homology_exact_on_random_faces_of_rank_5_and_above():
    # a seeded sample of faces, with the full face of each type, at N = 3
    rng = random.Random(55)
    for name in ["A5", "B5", "C5", "D5", "E6"]:
        data = build_lie_data(name)
        faces = list(all_faces(data))
        for J in rng.sample(faces[:-1], 15) + faces[-1:]:
            rep = OrbitComplex(data, J).homology_report(3)
            assert rep["all_ok"], (name, J, rep)


def least_positive_nodes(oc, tc):
    """x -> e(x), the least node with a positive wall value at x, for every
    point of the truncation tc: each one is in a top-degree cell."""
    l = oc.data.rank
    return {x: next(i for i in range(l + 1) if oc.ctx._vectors[x][i] > 0) for _, x in tc.bases[l]}


def matched_entries(oc, tc):
    """(p, basis index, face) of each matched coefficient: the lower cell
    (U - {e(x)}, x) among the faces of an upper cell (U, x) of degree p."""
    l, first = oc.data.rank, least_positive_nodes(oc, tc)
    for p in range(1, l + 1):
        for j, ((U, x), faces) in enumerate(zip(tc.bases[p], tc.matrices[p])):
            K = tuple(i for i in U if i != first[x])
            if K != U and (K, x) in faces:
                yield p, j, (K, x)


def cell_str(key):
    """A key as a certificate writes its term: nodes I, numerators x over
    the D of its complex."""
    return f"(I = {list(key[0])}, x = {list(key[1])})"


def test_matching_check_refuses_a_non_unit_matched_coefficient(monkeypatch):
    # 2 away from zero at a matched entry of a cached truncation
    from alcove.resolution import CheckFailed

    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    tc = oc.truncated(3)
    entries = list(matched_entries(oc, tc))
    assert len(entries) == sum(d["rank_im_above"] for d in oc.homology_report(3)["degrees"])
    for p, j, face in entries[::7]:
        faces = tc.matrices[p][j]
        coeff = faces[face]
        bad = coeff + 2 if coeff > 0 else coeff - 2
        # a changed copy of the boundary: the complex's stored faces stay
        matrix = list(tc.matrices[p])
        matrix[j] = {**faces, face: bad}
        monkeypatch.setitem(tc.matrices, p, matrix)
        with pytest.raises(CheckFailed) as info:
            oc.homology_report(3)
        assert str(info.value) == (
            f"Morse matching check failed in degree {p}: the matched face "
            f"{cell_str(face)} of {cell_str(tc.bases[p][j])} has coefficient {bad}"
        )
        monkeypatch.undo()
    assert oc.homology_report(3)["all_ok"]


def test_matching_check_refuses_matched_coefficient_2(monkeypatch):
    # 2 and -2, not only values three away from zero
    from alcove.resolution import CheckFailed

    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    tc = oc.truncated(3)
    p, j, face = next(matched_entries(oc, tc))
    for bad in (2, -2):
        matrix = list(tc.matrices[p])
        matrix[j] = {**matrix[j], face: bad}
        monkeypatch.setitem(tc.matrices, p, matrix)
        with pytest.raises(CheckFailed, match=f"{re.escape(cell_str(face))} of .* has coefficient {bad}$"):
            oc.homology_report(3)
        monkeypatch.undo()


def test_matching_check_refuses_a_dropped_matched_face(monkeypatch):
    from alcove.resolution import CheckFailed

    oc = OrbitComplex(build_lie_data("B3"), (0, 2, 3))
    tc = oc.truncated(3)
    for p, j, face in list(matched_entries(oc, tc))[::11]:
        matrix = list(tc.matrices[p])
        matrix[j] = {f: c for f, c in matrix[j].items() if f != face}
        monkeypatch.setitem(tc.matrices, p, matrix)
        with pytest.raises(CheckFailed) as info:
            oc.homology_report(3)
        assert str(info.value) == (
            f"Morse matching check failed in degree {p}: the matched face "
            f"{cell_str(face)} is missing from the boundary of "
            f"{cell_str(tc.bases[p][j])}"
        )
        monkeypatch.undo()
    assert oc.homology_report(3)["all_ok"]


def upward_shorter_faces(oc, tc):
    """(upper cell, face) for each face of a matched upper cell that is
    itself matched upward: the faces whose shorter points make the matching
    acyclic."""
    l, first = oc.data.rank, least_positive_nodes(oc, tc)
    for p in range(1, l + 1):
        for (U, x), faces in zip(tc.bases[p], tc.matrices[p]):
            if first[x] in U:
                for F, y in faces:
                    if y != x and first[y] not in F:
                        yield (U, x), (F, y)


def test_matching_check_refuses_a_face_that_is_not_shorter(monkeypatch):
    # a shorter point of an upward-matched face given the length of the
    # upper cell's point in the orbit's length table; the witness names a
    # face at that point and an upper cell it is now not below
    from alcove.resolution import CheckFailed

    oc = OrbitComplex(build_lie_data("A3"), (0, 1, 2, 3))
    tc = oc.truncated(3)
    faces = list(upward_shorter_faces(oc, tc))
    lengths = oc.ctx._length
    assert faces and all(lengths[y] < lengths[x] for (_, x), (_, y) in faces)
    for (_, x), (_, y) in faces[::13]:
        monkeypatch.setitem(lengths, y, lengths[x])
        witnesses = {
            f"Morse matching check failed in degree {len(upper[0]) - 1}: the face {cell_str(face)} of "
            f"{cell_str(upper)} is matched upward but has length {lengths[y]}, not below {lengths[upper[1]]}"
            for upper, face in faces if face[1] == y and lengths[upper[1]] <= lengths[y]
        }
        with pytest.raises(CheckFailed) as info:
            oc.homology_report(3)
        assert str(info.value) in witnesses
        monkeypatch.undo()
    assert oc.homology_report(3)["all_ok"]


def test_matching_check_refuses_an_upper_cell_missing_from_the_basis(monkeypatch):
    # a top-degree cell and its column taken out of a cached truncation: its
    # lower cell is matched upward to a cell that is not there
    from alcove.resolution import CheckFailed

    oc = OrbitComplex(build_lie_data("C2"), (0, 1, 2))
    tc = oc.truncated(4)
    l = oc.data.rank
    for j in (0, len(tc.bases[l]) // 2, len(tc.bases[l]) - 1):
        U, x = tc.bases[l][j]
        e = least_positive_nodes(oc, tc)[x]
        monkeypatch.setattr(tc, "bases", tc.bases[:l] + [tc.bases[l][:j] + tc.bases[l][j + 1:]])
        monkeypatch.setitem(tc.matrices, l, tc.matrices[l][:j] + tc.matrices[l][j + 1:])
        with pytest.raises(CheckFailed) as info:
            oc.homology_report(4)
        lower = (tuple(i for i in U if i != e), x)
        assert str(info.value) == (
            f"Morse matching check failed in degree {l - 1}: the upper cell of {cell_str(lower)} "
            "is not in the basis"
        )
        monkeypatch.undo()
    assert oc.homology_report(4)["all_ok"]


def test_matching_check_compares_the_critical_cells(monkeypatch):
    # the full face has one critical cell, ({0}, base point); another face
    # has none.  Expecting them at another point, or on a proper face, fails
    from alcove.resolution import CheckFailed

    oc = OrbitComplex(build_lie_data("G2"), (0, 1, 2))
    base = cell_str(((0,), oc.ctx.base))
    other = oc.truncated(3).bases[0][-1][1]
    monkeypatch.setattr(oc.ctx, "base", other)
    with pytest.raises(CheckFailed) as info:
        oc.homology_report(3)
    assert str(info.value) == (
        f"Morse matching check failed in degree 0: critical cells {base}, "
        f"expected {cell_str(((0,), other))}"
    )
    monkeypatch.undo()
    proper = OrbitComplex(build_lie_data("G2"), (1, 2))
    monkeypatch.setattr(proper, "full_face", proper.J)
    with pytest.raises(CheckFailed) as info:
        proper.homology_report(3)
    assert str(info.value) == (
        "Morse matching check failed in degree 0: critical cells none, "
        f"expected {cell_str(((0,), proper.ctx.base))}"
    )


@pytest.mark.parametrize("mutation", ["coefficient", "dropped", "length"])
def test_resolution_exits_4_on_a_failed_matching_check(capsys, monkeypatch, mutation):
    # each mutation of the checked truncation through the CLI: exit 4, the
    # witness on stderr, no traceback
    from alcove import resolution
    from alcove.cli import main

    original = resolution.OrbitComplex.truncated

    def mutated(self, n):
        tc = original(self, n)
        if mutation == "length":
            (_, x), (_, y) = next(upward_shorter_faces(self, tc))
            self.ctx._length[y] = self.ctx._length[x]
        else:
            p, j, face = next(matched_entries(self, tc))
            faces = dict(tc.matrices[p][j])
            if mutation == "coefficient":
                faces[face] *= 3
            else:
                del faces[face]
            tc.matrices[p][j] = faces
        return tc

    monkeypatch.setattr(resolution.OrbitComplex, "truncated", mutated)
    code = main(["resolution", "A2", "-J", "0,1,2", "-N", "3"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("check failed: Morse matching check failed in degree ")
    assert "Traceback" not in err


def test_homology_report_computes_each_row_sign_once(monkeypatch):
    from alcove import resolution
    from alcove.affine import OrbitContext, crossing_length

    calls = []
    original = resolution._scaled_crossing_length

    def counting(data, x, D):
        calls.append(x)
        return original(data, x, D)

    monkeypatch.setattr(resolution, "_scaled_crossing_length", counting)
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    rep = oc.homology_report(4)
    assert rep["degrees"][0]["verdict"] == "H0=Z"
    # every row sign is read from the length table of the orbit search
    assert calls == []
    assert all(
        oc.length_of(x) == crossing_length(oc.data, unscaled(x, oc.D))
        for _, x in oc.truncated(4).bases[0]
    )
    # a point beyond the table is what reaches the patched crossing count
    far = next(op.point for op in OrbitContext(oc.data, oc.J).points_up_to(5) if op.length == 5)
    assert oc.length_of(far) == 5 and calls == [far]


def test_length_of_reduces_instead_of_enumerating():
    # off the length table a point is placed by one reduction to the alcove
    # and a crossing count: an A2 point of length 400, (1/3, 301/3), needs no
    # orbit search, the table does not grow, and a point off the orbit
    # still raises
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    assert oc.D == 3 and oc.ctx.base == (1, 1)
    size = len(oc.ctx._length)
    start = time.perf_counter()
    assert oc.length_of((1, 301)) == 400
    assert time.perf_counter() - start < 0.1
    assert len(oc.ctx._length) == size
    for off in [(1, 302), (2, 301), (0, 3), (1, 1, 1), (1,)]:
        with pytest.raises(ValueError):
            oc.length_of(off)
    assert len(oc.ctx._length) == size


@pytest.mark.parametrize("name, J", [("A2", (0, 1, 2)), ("B2", (0, 1)), ("G2", (0,)), ("A3", (1, 3))])
def test_length_of_matches_the_orbit_search(name, J):
    # a fresh complex, whose length table holds only the base point, gives
    # every orbit point of length <= 5 its breadth-first length
    from alcove.affine import OrbitContext

    data = build_lie_data(name)
    oc = OrbitComplex(data, J)
    for op in OrbitContext(data, J).points_up_to(5):
        assert oc.length_of(op.point) == op.length
    assert len(oc.ctx._length) == 1


def test_h0_check_sees_every_row_sign(monkeypatch):
    # flipping the augmentation sign of any point met by d_1 breaks H0=Z
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    tc = oc.truncated(3)
    met = {face for faces in tc.matrices[1] for face in faces}
    assert met == set(tc.bases[0])
    original = oc.length_of
    for flipped in sorted({x for _, x in met}):
        monkeypatch.setattr(oc, "length_of", lambda x: original(x) + (x == flipped))
        rep = oc.homology_report(3)
        assert rep["degrees"][0]["verdict"] == "H0!=Z" and not rep["all_ok"]
    monkeypatch.undo()
    assert oc.homology_report(3)["all_ok"]


def test_random_cycle_computes_each_kernel_once(monkeypatch):
    # one kernel_basis call per (n, p) however often random_cycle asks, and
    # the same cycles as a fresh complex, whose kernels are all uncached
    from alcove import resolution

    calls = []
    original = resolution.kernel_basis

    def counting(M, ncols):
        calls.append(ncols)
        return original(M, ncols)

    data = build_lie_data("A3")
    J = (0, 1, 2, 3)
    oc = OrbitComplex(data, J)
    requests = [(1, 2), (2, 2), (1, 2), (1, 3), (2, 2), (1, 3), (1, 2), (2, 3), (2, 3)]
    rng, oracle_rng = random.Random(41), random.Random(41)
    for p, n in requests:
        monkeypatch.setattr(resolution, "kernel_basis", counting)
        got = oc.random_cycle(p, n, rng)
        monkeypatch.setattr(resolution, "kernel_basis", original)
        assert got == OrbitComplex(data, J).random_cycle(p, n, oracle_rng)
        assert not oc.boundary(got)
    assert len(calls) == len(set(requests)) == 4


def a2_certificate_doc():
    import json as _json

    doc = _json.loads(contract_certificate_a2())
    assert doc["cycle"] and len(doc["cycle"][0]["x"]) == 2
    return doc


def edit_off_lattice(doc):
    doc["cycle"][0]["x"][0] = "1/7"  # a 'p/q' string, not a numerator


def edit_zero_denominator(doc):
    doc["cycle"][0]["x"][1] = "1/0"


def edit_extra_coordinate(doc):
    doc["cycle"][0]["x"].append(0)


def edit_missing_coordinate(doc):
    doc["bounding"][0]["x"].pop()


def edit_node_out_of_range(doc):
    doc["cycle"][0]["I"] = [0, 3]


def edit_negative_node(doc):
    doc["bounding"][0]["I"] = [-1, 0, 1]


CERTIFICATE_EDITS = [edit_off_lattice, edit_zero_denominator, edit_extra_coordinate,
                     edit_missing_coordinate, edit_node_out_of_range, edit_negative_node]


@pytest.mark.parametrize("edit", CERTIFICATE_EDITS, ids=lambda f: f.__name__)
def test_verify_certificate_rejects_malformed_points_with_value_error(edit):
    import json as _json

    doc = a2_certificate_doc()
    edit(doc)
    # anything but ValueError escapes pytest.raises and fails the test
    with pytest.raises(ValueError):
        verify_certificate(_json.dumps(doc))


TERM_TYPES = "needs integer nodes I, integer numerators x and an integer coeff"


def verify_cert_cli(tmp_path, capsys, text):
    """verify-cert on the certificate text: exit code, stdout and stderr."""
    from alcove.cli import main

    cert = tmp_path / "cert.json"
    cert.write_text(text)
    code = main(["verify-cert", str(cert)])
    return (code, *capsys.readouterr())


# JSON texts put in place of one coordinate; none is an integer, whatever a
# string would spell, and none is parsed
NON_INTEGER_COORDINATES = [
    "true", "1.0", '"1"', '"1/8"', '"-1/3"', '"1/7"', '"1/0"', '"1e99999999"', "1e99999999",
    '"\\u0663"', "null", "[1]",
]


@pytest.mark.parametrize("value", NON_INTEGER_COORDINATES, ids=lambda v: v.replace('"', "'"))
def test_non_integer_coordinates_are_malformed(tmp_path, capsys, value):
    doc = a2_certificate_doc()
    doc["cycle"][0]["x"][1] = "VALUE"
    text = json.dumps(doc).replace('"VALUE"', value)
    message = f"malformed certificate: a chain term {TERM_TYPES}"
    with pytest.raises(ValueError, match=rf"^{message}$"):
        verify_certificate(text)
    assert verify_cert_cli(tmp_path, capsys, text) == (5, "", f"certificate invalid: {message}\n")


def old_form(doc):
    """The certificate as it was written before D: no D, and each point X / D
    as 'p/q' strings."""
    D = doc.pop("D")
    for chain in ("cycle", "bounding"):
        for item in doc[chain]:
            item["x"] = [str(F(v, D)) for v in item["x"]]


def old_form_with_D(doc):
    D = doc["D"]
    old_form(doc)
    doc["D"] = D


WRONG_D = "malformed certificate: D must be 3, the denominator of the orbit of [0, 1, 2]"


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.pop("D"), "malformed certificate: 'D'"),
    (lambda doc: doc.update(D=6), WRONG_D),
    (lambda doc: doc.update(D=1), WRONG_D),
    (lambda doc: doc.update(D=0), WRONG_D),
    (lambda doc: doc.update(D="3"), WRONG_D),
    (lambda doc: doc.update(D=3.0), WRONG_D),
    (lambda doc: doc.update(D=True), WRONG_D),
    (old_form, "malformed certificate: 'D'"),
    (old_form_with_D, f"malformed certificate: a chain term {TERM_TYPES}"),
], ids=["missing", "multiple", "one", "zero", "string", "float", "bool", "old-form", "old-form-with-D"])
def test_certificate_D_must_be_the_orbit_denominator(tmp_path, capsys, edit, message):
    # every point is read as numerators over D, so a certificate that does
    # not state the D of the orbit of J, as an integer, is refused
    doc = a2_certificate_doc()
    assert doc["D"] == 3 and verify_certificate(json.dumps(doc))["ok"]
    edit(doc)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        verify_certificate(json.dumps(doc))
    assert verify_cert_cli(tmp_path, capsys, json.dumps(doc)) == (5, "", f"certificate invalid: {message}\n")


def test_certificate_zero_denominator_names_key_and_coordinate():
    # a zero denominator can come in two ways: a 'p/q' coordinate "1/0",
    # which is no integer numerator and is refused without being parsed, and
    # D = 0, which is refused naming the orbit and the D it must be
    doc = a2_certificate_doc()
    edit_zero_denominator(doc)
    assert doc["cycle"][0]["I"] == [0, 1] and doc["cycle"][0]["x"] == [-1, "1/0"]
    with pytest.raises(ValueError, match=rf"^malformed certificate: a chain term {TERM_TYPES}$"):
        verify_certificate(json.dumps(doc))
    doc = a2_certificate_doc()
    doc["D"] = 0
    with pytest.raises(ValueError, match=rf"^{re.escape(WRONG_D)}$"):
        verify_certificate(json.dumps(doc))


def test_off_lattice_point_is_not_on_the_orbit():
    # element() takes rational points, so it is the one reader of a point
    # that can lie off (1/D) Z^l
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    assert oc.D == 3
    with pytest.raises(ValueError, match="off the lattice"):
        oc.element((0, 1), (F(1, 7), F(1, 3)))
    with pytest.raises(ValueError, match="coordinates"):
        oc.element((0, 1), (F(1, 3),))


def test_certificate_lattice_point_off_the_orbit_rejected():
    # (1, 1) lies in (1/3) Z^2 and inside the cone of {0, 1}, but it is a
    # coroot-lattice point, on the orbit of the origin, not of (1/3, 1/3)
    import json as _json

    doc = a2_certificate_doc()
    doc["cycle"][0]["I"], doc["cycle"][0]["x"] = [0, 1], [3, 3]
    with pytest.raises(ValueError, match=r"x = \[3, 3\] is not on the orbit"):
        verify_certificate(_json.dumps(doc))


def test_lattice_point_off_the_orbit_is_no_basis_pair():
    # (1, 1) is interior to the cone of {0, 1} and in (1/3) Z^2, but on the
    # orbit of the origin, not of (1/3, 1/3)
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    assert oc.D == 3 and oc.ctx.base == (1, 1)
    with pytest.raises(ValueError, match=r"^key \[0, 1\], x = \[3, 3\] is not on the orbit of \[0, 1, 2\]$"):
        oc.element((0, 1), (1, 1))
    with pytest.raises(ValueError, match=r"^key \[0, 1\], x = \[3, 3\] is not on the orbit of \[0, 1, 2\]$"):
        oc.boundary(ChainElt((0, 1, 2), 1, {((0, 1), (3, 3)): 1}))
    assert oc._faces == {}


def test_length_of_is_bounded_before_any_reduction():
    # the A2 point (1/3, (3n+1)/3) crosses 4n hyperplanes
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    assert oc.length_of((1, 3 * 2500 + 1)) == 10_000 == CERT_MAX_LENGTH
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^x = \[1, 7504\] has length 10004, above the limit 10000$"):
        oc.length_of((1, 3 * 2501 + 1))
    with pytest.raises(ValueError, match="has length 400000000, above the limit 10000$"):
        oc.length_of((1, 3 * 10**8 + 1))
    assert time.perf_counter() - start < 0.1


def test_length_limit_is_inclusive_at_one_crossing_past_it():
    # the A1 orbit point (2n+1)/4 has length n
    oc = OrbitComplex(build_lie_data("A1"), (0, 1))
    assert oc.D == 4 and oc.length_of((2 * 10_000 + 1,)) == 10_000 == CERT_MAX_LENGTH
    with pytest.raises(ValueError, match=r"^x = \[20003\] has length 10001, above the limit 10000$"):
        oc.length_of((2 * 10_001 + 1,))


def test_length_of_keeps_each_placed_point(monkeypatch):
    # a point off the length table is bounded and reduced once per complex
    from alcove import resolution

    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    calls = []
    original = resolution._reduce
    monkeypatch.setattr(resolution, "_reduce", lambda *a: calls.append(a[0]) or original(*a))
    for _ in range(3):
        assert oc.length_of((1, 301)) == 400
    assert len(calls) == 1 and oc.ctx._length == {(1, 1): 0}


def far_a2_certificate(n):
    """An A2 certificate whose one cycle key (0, 1) sits at (1/3, (3n+1)/3),
    the numerators (1, 3n+1) over D = 3."""
    import json as _json

    return _json.dumps({"group": "A2", "J": [0, 1, 2], "degree": 1, "D": 3, "bounding": [],
                        "cycle": [{"I": [0, 1], "x": [1, 3 * n + 1], "coeff": 1}]})


def test_certificate_far_point_rejected_before_any_reduction():
    import time

    start = time.perf_counter()
    with pytest.raises(ValueError, match=(
        r"^certificate key \[0, 1\], x = \[1, 300000001\] has length 400000000, "
        r"above the limit 10000$"
    )):
        verify_certificate(far_a2_certificate(10**8))
    # a reduction would take one reflection per crossing, 4 * 10**8 of them
    assert time.perf_counter() - start < 0.1


def test_certificate_length_limit_is_inclusive():
    # the point (1/3, (3n+1)/3) crosses 4n hyperplanes
    data = build_lie_data("A2")
    for n in (2500, 2501):
        assert _scaled_crossing_length(data, (1, 3 * n + 1), 3) == 4 * n
    assert CERT_MAX_LENGTH == 10_000
    # at the limit the key is reduced and passes the orbit check; the single
    # term is no cycle
    with pytest.raises(ValueError, match="^certificate cycle is not a cycle$"):
        verify_certificate(far_a2_certificate(2500))
    with pytest.raises(ValueError, match="has length 10004, above the limit 10000$"):
        verify_certificate(far_a2_certificate(2501))


def empty_certificate(group):
    return json.dumps({"group": group, "J": [0, 1], "degree": 1, "cycle": [], "bounding": []})


AT_THE_RANK_BOUND = """
import sys
from alcove.cli import main
from alcove.lie import build_lie_data
from alcove.resolution import OrbitComplex

print(main(["verify-cert", sys.argv[1]]))
data = build_lie_data("A20")
OrbitComplex(data, (0, 1))
print(sorted(key[1] for key in data._memo if key[0] == "walls"))
"""


def test_certificate_at_the_rank_bound_verifies(tmp_path):
    # A20 has 2**21 - 1 node sets; a wall table built for all of them took
    # 620 MB, so the check runs in a child process that a timeout ends
    assert CERT_MAX_RANK == 20
    cert = tmp_path / "a20.json"
    cert.write_text('{"group": "A20", "J": [0, 1], "degree": 1, "D": 42, "cycle": [], "bounding": []}')
    proc = subprocess.run(
        [sys.executable, "-c", AT_THE_RANK_BOUND, str(cert)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    # verify-cert exits 0, and the wall table holds the one node set
    # face_data named for the face: no boundary reduced into any other
    assert proc.stdout.splitlines() == ["certificate ok: A20 J=[0, 1] degree 1", "0", "[(0, 1)]"]


def test_certificate_above_the_rank_bound_builds_no_root_data(monkeypatch):
    # and so no memo that could keep an orbit complex
    from alcove import resolution

    def refuse(lie_type):
        raise AssertionError(f"root data built for {lie_type}")

    monkeypatch.setattr(resolution, "build_lie_data", refuse)
    for group, rank in (("A21", 21), ("B21", 21), ("C40", 40), ("a1000000000", 10**9)):
        with pytest.raises(ValueError, match=(
            rf"^malformed certificate: group {group.upper()} has rank {rank}, above the limit 20$"
        )):
            verify_certificate(empty_certificate(group))


def wall_table(data):
    return {key[1]: walls for key, walls in data._memo.items() if key[0] == "walls"}


def test_wall_table_fills_per_node_set_on_demand():
    for J, n in [((0, 1, 2, 3), 2), ((0, 1), 0), ((0, 1), 1)]:
        # a copy of the A3 data with an empty memo, which no other test fills
        data = dataclasses.replace(build_lie_data("A3"), _memo={})
        oc = OrbitComplex(data, J)
        assert wall_table(data).keys() == {J}  # named by face_data
        tc = oc.truncated(n)
        # the node sets a boundary reduced into, each with the walls outside it
        reduced = {I[:r] + I[r + 1:] for basis in tc.bases[1:] for I, _ in basis for r in range(len(I))}
        table = wall_table(data)
        assert table.keys() == reduced | {J}
        assert all(walls == tuple(i for i in range(4) if i not in I) for I, walls in table.items())
        if J != (0, 1, 2, 3):
            assert len(table) < 15  # of the 15 node sets of A3


def test_certificate_points_scale_by_the_orbit_denominator():
    # a certificate states the D of its complex once, and each point as the
    # key numerators over it
    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    c = oc.random_cycle(1, 3, random.Random(5), max_terms=4)
    doc = json.loads(certificate_json(oc, c, oc.contract_cycle(c)))
    assert list(doc) == ["group", "J", "degree", "D", "cycle", "bounding"] and doc["D"] == oc.D == 3
    assert [tuple(item["x"]) for item in doc["cycle"]] == [x for _, x in sorted(c.terms)]
    assert chain_from_json(oc.J, 1, doc["cycle"]) == c


@pytest.mark.parametrize("name,J,N", [
    ("A1", (0, 1), 4), ("A2", (0, 1, 2), 3), ("A2", (0, 1), 3), ("C2", (0, 1, 2), 2),
    ("G2", (0, 1, 2), 2), ("A3", (0, 1, 2, 3), 2), ("B3", (0, 1, 2, 3), 2), ("A4", (0, 1, 2, 3, 4), 2),
])
def test_certificate_bytes_are_those_of_the_indenting_encoder(name, J, N):
    # certificate_json lays its text out from cells; the stdlib encoder with
    # indent=2 is the reference.  Seed 0 samples no terms, an empty cycle
    oc = OrbitComplex(build_lie_data(name), J)
    if oc.data.rank == 1:
        # no interior degree, so no contraction: one-coordinate points over
        # an empty bounding chain pin the layout all the same
        keys = oc.basis_elements(1, N)
        pairs = [(ChainElt(J, 1, {key: (-1) ** i * (i + 1) for i, key in enumerate(keys)}), ChainElt(J, 2))]
    else:
        pairs = [(c, oc.contract_cycle(c)) for p in range(1, oc.data.rank) for seed in range(6)
                 for c in [oc.random_cycle(p, N, random.Random(seed), max_terms=min(seed, 4))]]
        assert {bool(c) for c, _ in pairs} == {False, True}
    for c, b in pairs:
        doc = {"group": name, "J": list(J), "degree": c.degree, "D": oc.D,
               "cycle": chain_to_json(c), "bounding": chain_to_json(b)}
        assert certificate_json(oc, c, b) == json.dumps(doc, indent=2)


# -- certificate round trip on random complexes ------------------------------------------

def test_certificate_round_trip_on_random_complexes():
    # random (type of rank <= 3, full or partial face J, N <= 3, degree,
    # seed): a contracted random cycle verifies, and moving any one
    # bounding coefficient by +-1 breaks the certificate
    rng = random.Random(19)
    cases = 0
    while cases < 150:
        data = build_lie_data(rng.choice(["A2", "B2", "G2", "A3", "B3", "C3"]))
        l = data.rank
        J = tuple(sorted(rng.sample(range(l + 1), rng.randint(1, l + 1))))
        N, p, seed = rng.randint(1, 3), rng.randint(1, l - 1), rng.randrange(10**6)
        oc = OrbitComplex(data, J)
        cycle = oc.random_cycle(p, N, random.Random(seed))
        if not cycle:
            continue
        cases += 1
        text = certificate_json(oc, cycle, oc.contract_cycle(cycle))
        assert verify_certificate(text) == {"group": str(data.lie_type), "J": list(J),
                                            "degree": p, "ok": True}
        doc = json.loads(text)
        for item in doc["bounding"]:
            for step in (-1, 1):
                item["coeff"] += step
                with pytest.raises(ValueError, match="^certificate bounding chain does not bound"):
                    verify_certificate(json.dumps(doc))
                item["coeff"] -= step


# -- certificate fuzz ------------------------------------------------------------------

def fuzz_certificates():
    """Real certificates: A2 and A3 on the full face, C2 on a proper face,
    degrees 1 and 2."""
    out = []
    for name, J, n, p, seed in [("A2", (0, 1, 2), 3, 1, 1), ("A3", (0, 1, 2, 3), 2, 2, 4),
                                ("C2", (1, 2), 3, 1, 1)]:
        oc = OrbitComplex(build_lie_data(name), J)
        cycle = oc.random_cycle(p, n, random.Random(seed))
        assert cycle
        out.append(certificate_json(oc, cycle, oc.contract_cycle(cycle)))
    return out


# values put in place of one field; "DEEP" becomes 100,000 nested lists
FUZZ_VALUES = [
    0.5, 2.0, -1.4, float("nan"), True, False, None, "", "1", "-1/3", "1/3", "2/6",
    "+1/3", " 1/3", "1/-3", "1.5", "1/3.0", "0x1", "1_0", "٣", "--1", "1/", "/3",
    "1/0", "-1/00", "1/7", [], [0], [0, 1], [1, 0], [0, 0], [0, 3], [-1, 0], [1.0, 2.0],
    {}, {"I": [0, 1]}, 10**40, -10**40, -1, 0, 1, 3, "A2", "A3", "Z9", "D3", "DEEP",
]


def fuzz_paths(doc):
    """Every field of a certificate, as a path of keys and indices."""
    yield from [("group",), ("J",), ("degree",), ("D",), ("cycle",), ("bounding",)]
    yield from (("J", k) for k in range(len(doc["J"])))
    for chain in ("cycle", "bounding"):
        for t, item in enumerate(doc[chain]):
            yield from [(chain, t), (chain, t, "I"), (chain, t, "x"), (chain, t, "coeff")]
            yield from ((chain, t, "I", k) for k in range(len(item["I"])))
            yield from ((chain, t, "x", k) for k in range(len(item["x"])))


def ill_typed(path, value):
    """Whether value has a type the field at path may not have: group a
    string, degree, D, coeff, every node and every numerator an integer,
    and I, J and x lists of integers."""
    last, above = path[-1], path[-2] if len(path) > 1 else None
    if last in ("degree", "D", "coeff") or above in ("I", "J", "x"):
        return type(value) is not int
    if last in ("I", "J", "x"):
        return type(value) is not list or any(type(v) is not int for v in value)
    return last == "group" and type(value) is not str


def mutate(doc, path, rng):
    """A copy of doc with the field at path replaced, dropped, or, for a
    list, grown, shrunk or reversed; and whether the change is ill-typed."""
    import copy

    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind = rng.choice(["value", "value", "value", "drop", "extend", "shrink", "reverse"])
    target = parent[path[-1]]
    if kind == "drop":
        del parent[path[-1]]
    elif kind != "value" and isinstance(target, list) and target:
        if kind == "extend":
            target.append(rng.choice(target))
        elif kind == "shrink":
            target.pop(rng.randrange(len(target)))
        else:
            target.reverse()
    else:
        parent[path[-1]] = value = rng.choice(FUZZ_VALUES)
        return doc, ill_typed(path, value)
    return doc, False


def verify_outcome(text):
    """verify_certificate's result, or the text of the ValueError it raised."""
    try:
        return verify_certificate(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def cold_outcome(monkeypatch, text):
    """verify_outcome on a datum with an empty memo, so in a new complex."""
    from alcove import resolution

    with monkeypatch.context() as m:
        m.setattr(resolution, "build_lie_data",
                  lambda lie_type: dataclasses.replace(build_lie_data(lie_type), _memo={}))
        return verify_outcome(text)


def test_verify_certificate_fuzz_raises_only_value_error(monkeypatch):
    # each mutated certificate verifies or raises ValueError, nothing else;
    # an ill-typed field never verifies; and the outcome is the same on the
    # complex that earlier verifications filled as on a new one
    import json as _json

    rng = random.Random(15)
    outcomes = {"ok": 0, "rejected": 0}
    for text in fuzz_certificates():
        assert verify_certificate(text)["ok"]
        doc = _json.loads(text)
        paths = list(fuzz_paths(doc))
        for _ in range(120):
            mutated, must_fail = mutate(doc, rng.choice(paths), rng)
            text = _json.dumps(mutated).replace('"DEEP"', "[" * 100_000 + "]" * 100_000)
            result = verify_outcome(text)
            assert result == cold_outcome(monkeypatch, text), mutated
            if isinstance(result, str):
                outcomes["rejected"] += 1
            else:
                assert result["ok"] is True and not must_fail, mutated
                outcomes["ok"] += 1
    assert outcomes["ok"] > 0 and outcomes["rejected"] > 300, outcomes


@pytest.mark.parametrize("edit, message", [
    ({"coeff": -2}, "certificate cycle is not a cycle"),
    ({"x": [3, 3]}, "certificate key [0, 1], x = [3, 3] is not on the orbit of [0, 1, 2]"),
    # [-1, -1] is on the orbit, and the bounding chain's key ([0, 1, 2],
    # [-1, -1]) is stored, but the point lies on the wall of node 2
    ({"x": [-1, -1]}, "certificate key [0, 1], x = [-1, -1] is not interior to its cone"),
    ({"I": [0, 3]}, "certificate key [0, 3] has a node outside 0..2"),
    ({"D": 6}, "malformed certificate: D must be 3, the denominator of the orbit of [0, 1, 2]"),
], ids=["coeff", "off-orbit", "not-interior", "node-l+1", "wrong-D"])
def test_tampered_certificate_fails_after_a_good_one(monkeypatch, edit, message):
    # the complex of (A2, J) holds every key of the good certificate when
    # the tampered copy comes in, and refuses it as a new complex does; D
    # is a field of the certificate, every other edit one of its first term
    text = contract_certificate_a2()
    doc = json.loads(text)
    assert (doc["D"], doc["cycle"][0]) == (3, {"I": [0, 1], "x": [-1, 0], "coeff": -3})
    (doc if "D" in edit else doc["cycle"][0]).update(edit)
    bad = json.dumps(doc)
    assert cold_outcome(monkeypatch, bad) == f"ValueError: {message}"
    cold_a2(monkeypatch)
    for _ in range(2):
        assert verify_certificate(text)["ok"]
        assert verify_outcome(bad) == f"ValueError: {message}"
    assert verify_certificate(text)["ok"]


def test_fractional_or_boolean_certificate_fields_never_verify():
    import json as _json

    for text in fuzz_certificates():
        doc = _json.loads(text)
        for change in (lambda v: v + (0.4 if v > 0 else -0.4), float, lambda v: v == 1):
            bad = _json.loads(text)
            for chain in ("cycle", "bounding"):
                for item in bad[chain]:
                    item["coeff"] = change(item["coeff"])
            with pytest.raises(ValueError, match=TERM_TYPES):
                verify_certificate(_json.dumps(bad))
        # J and degree not integers, coefficients intact
        edits = [("J", [float(j) for j in doc["J"]]), ("J", "".join(map(str, doc["J"]))),
                 ("degree", str(doc["degree"])), ("degree", float(doc["degree"])),
                 ("group", 5), ("group", None)]
        for field, value in edits:
            with pytest.raises(ValueError, match="^malformed certificate: group must be a string"):
                verify_certificate(_json.dumps({**doc, field: value}))
        for node in (True, 1.0, "1"):
            bad = _json.loads(text)
            bad["cycle"][0]["I"][-1] = node
            with pytest.raises(ValueError, match=TERM_TYPES):
                verify_certificate(_json.dumps(bad))


EXPONENT_CERTIFICATES = """
import json, random
from alcove.lie import build_lie_data
from alcove.resolution import OrbitComplex, certificate_json, verify_certificate

oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
cycle = oc.random_cycle(1, 3, random.Random(1))
doc = json.loads(certificate_json(oc, cycle, oc.contract_cycle(cycle)))
edits = [
    ("x", "1e99999999"), ("x", "-1e99999999"), ("x", "1/1e99999999"), ("x", "1E99999999"),
    ("coeff", "1e99999999"), ("I", ["1e99999999", 1]),
]
for field, value in edits:
    bad = json.loads(json.dumps(doc))
    if field == "x":
        bad["cycle"][0]["x"][0] = value
    else:
        bad["cycle"][0][field] = value
    for text in (json.dumps(bad), json.dumps(bad).replace('"1e99999999"', "1e99999999")):
        try:
            verify_certificate(text)
        except ValueError as exc:
            print(type(exc).__name__)
"""


def test_exponent_coordinates_are_refused_without_expansion():
    # Fraction('1e99999999') builds a 10**8-digit integer, so the checks run
    # in a child process that a timeout ends
    proc = subprocess.run(
        [sys.executable, "-c", EXPONENT_CERTIFICATES],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 12


def test_resolution_exits_4_when_d_squared_is_not_zero(capsys, monkeypatch):
    # one doubled face coefficient in every degree-2 column: the d o d = 0
    # check of the truncation fails, and the CLI reports it like a failed
    # matching check
    from alcove import resolution
    from alcove.cli import main

    original = resolution.OrbitComplex._store_faces

    def doubled(self, key, start):
        faces = original(self, key, start)
        if len(key[0]) == 3:
            faces[next(iter(faces))] *= 2
        return faces

    monkeypatch.setattr(resolution.OrbitComplex, "_store_faces", doubled)
    code = main(["resolution", "A2", "-J", "0,1,2", "-N", "3"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("check failed: d composed with d is nonzero at degree 2: the boundary of the boundary of (I = [")
    assert "Traceback" not in err
