import itertools
import random

import pytest

from alcove.affine import dominantize_terms
from alcove.groupring import (
    AntiInvariant,
    GroupRingElt,
    LevelMismatchError,
    NotAntiInvariantError,
    _reflect,
    expand,
    reskew_to,
    to_cone_basis,
)
from alcove.lie import _check_face_index, _walls_outside, apply_weight, build_lie_data, face_data, weyl_elements


# Used only by the tests (test_sparse imports skew_symmetrize); moved from
# alcove.groupring with their bodies unchanged.


def skew_symmetrize(phi: GroupRingElt, I) -> GroupRingElt:
    """Alternating sum of phi over W_I at the element's level (Sk over the
    face I): each term is reduced into the cone with its sign, terms on a
    wall drop out, and the cone representatives are expanded."""
    I = _check_face_index(phi.data, I)
    walls = _walls_outside(phi.data, I)
    reps = dominantize_terms(phi.data, phi.terms, phi.level, walls, 0)
    return expand(AntiInvariant._trusted(reps, phi.data, phi.level, I))


def check_w_invariant(chi: GroupRingElt) -> None:
    """Verify invariance under the classical (linear) Weyl group action."""
    for i in range(1, chi.data.rank + 1):  # linear reflections, any level
        if _reflect(chi, i) != chi:
            raise ValueError(f"element is not W-invariant: reflection {i} fails")


def act_invariant(chi: GroupRingElt, anti: AntiInvariant) -> AntiInvariant:
    """Module action of a W-invariant element on an anti-invariant:
    expand, multiply, re-express in the cone basis."""
    if chi.data.lie_type != anti.data.lie_type or chi.level != anti.level:
        raise LevelMismatchError("context mismatch")
    check_w_invariant(chi)
    product = chi * expand(anti)
    return to_cone_basis(product, anti.I)


def gr_multiply(a: GroupRingElt, b: GroupRingElt) -> GroupRingElt:
    return a * b


def groupring_to_json(phi: GroupRingElt) -> dict:
    return {
        "type": str(phi.data.lie_type),
        "level": phi.level,
        "terms": [
            {"weight": list(w), "coeff": c} for w, c in sorted(phi.terms.items())
        ],
    }


def groupring_from_json(data, doc: dict) -> GroupRingElt:
    terms = {tuple(t["weight"]): int(t["coeff"]) for t in doc["terms"]}
    return GroupRingElt(data, int(doc["level"]), terms)


def elt(data, level, *pairs):
    terms = {}
    for w, c in pairs:
        terms[tuple(w)] = terms.get(tuple(w), 0) + c
    return GroupRingElt(data, level, terms)


# -- multiplication ------------------------------------------------------------

def test_multiply_unit():
    d = build_lie_data("A2")
    a = elt(d, 4, ((1, 0), 2), ((0, 3), -1))
    assert GroupRingElt.unit(d, 4) * a == a


def test_multiply_monomials_and_binomial():
    d = build_lie_data("A1")
    x = GroupRingElt.delta(d, 3, (1,))
    assert x * x == GroupRingElt.delta(d, 3, (2,))
    s = elt(d, 3, ((1,), 1), ((-1,), 1))
    sq = s * s
    assert sq == elt(d, 3, ((2,), 1), ((0,), 2), ((-2,), 1))


def test_multiply_level_mismatch():
    d = build_lie_data("A1")
    with pytest.raises(LevelMismatchError):
        gr_multiply(GroupRingElt.unit(d, 2), GroupRingElt.unit(d, 3))


def test_multiply_commutative_associative():
    rng = random.Random(2)
    d = build_lie_data("A2")
    def rand():
        return elt(
            d, 5,
            *((tuple(rng.randint(-2, 2) for _ in range(2)), rng.randint(-2, 2)) for _ in range(3)),
        )
    for _ in range(10):
        a, b, c = rand(), rand(), rand()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


# -- skew-symmetrization ---------------------------------------------------------

def test_skew_examples():
    d = build_lie_data("A1")
    sk = skew_symmetrize(GroupRingElt.delta(d, 3, (1,)), (0,))
    assert sk == elt(d, 3, ((1,), 1), ((-1,), -1))
    sk = skew_symmetrize(GroupRingElt.delta(d, 3, (1,)), (1,))
    assert sk == elt(d, 3, ((1,), 1), ((5,), -1))
    # a wall-fixed weight dies: 3 on wall 0 at m=3
    assert not skew_symmetrize(GroupRingElt.delta(d, 3, (3,)), (1,))


def test_skew_equivariance():
    # Sk(w . nu) = sign(w) Sk(nu) for w in W_I
    rng = random.Random(9)
    for name in ["A1", "A2"]:
        d = build_lie_data(name)
        for I in [(0,), (d.rank,)]:
            elts = weyl_elements(d, I)
            for _ in range(10):
                m = rng.randint(1, 6)
                nu = tuple(rng.randint(-3, 4) for _ in range(d.rank))
                base = skew_symmetrize(GroupRingElt.delta(d, m, nu), I)
                w = rng.choice(elts)
                moved = skew_symmetrize(GroupRingElt.delta(d, m, apply_weight(w, nu, m)), I)
                assert moved == (w.sign * base)


def enumerated_skew(data, nu, m, I):
    """Oracle: the alternating sum of delta at w . nu over the enumerated
    elements w of W_I, at level m."""
    out = {}
    for w in weyl_elements(data, I):
        key = apply_weight(w, nu, m)
        out[key] = out.get(key, 0) + w.sign
    return GroupRingElt(data, m, out)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_skew_matches_enumerated_alternating_sum(name):
    """Every face, seeded weights in [-4, 5]^l and levels in [-2, 6]: the
    alternating sum over W_I equals the one over its enumerated elements."""
    rng = random.Random(1010)
    d = build_lie_data(name)
    faces = [
        I
        for r in range(1, d.rank + 2)
        for I in itertools.combinations(range(d.rank + 1), r)
    ]
    for I in faces:
        for _ in range(12):
            m = rng.randint(-2, 6)
            nu = tuple(rng.randint(-4, 5) for _ in range(d.rank))
            got = skew_symmetrize(GroupRingElt.delta(d, m, nu), I)
            assert got == enumerated_skew(d, nu, m, I), (I, nu, m)


def test_skew_and_expand_refuse_huge_groups():
    # W_(0) of E8 has 696,729,600 elements: refused before any walk
    d = build_lie_data("E8")
    assert face_data(d, (0,)).weyl_order == 696729600
    rho = (1,) * 8
    with pytest.raises(ValueError, match="not supported"):
        skew_symmetrize(GroupRingElt.delta(d, 1, rho), (0,))
    with pytest.raises(ValueError, match="not supported"):
        expand(AntiInvariant(d, 1, (0,), {rho: 1}))
    # a wall-fixed term is refused too: the order is checked before the terms
    with pytest.raises(ValueError, match="not supported"):
        skew_symmetrize(GroupRingElt.delta(d, 1, (0,) * 8), (0,))


def test_skew_result_is_anti_invariant():
    d = build_lie_data("C2")
    for I in [(0,), (1,), (0, 2)]:
        sk = skew_symmetrize(GroupRingElt.delta(d, 4, (1, 2)), I)
        to_cone_basis(sk, I)  # must not raise


# -- cone basis roundtrip ---------------------------------------------------------

def test_roundtrip_example():
    d = build_lie_data("A1")
    phi = elt(d, 3, ((1,), 1), ((-1,), -1))
    anti = to_cone_basis(phi, (0,))
    assert anti.terms == {(1,): 1}
    assert expand(anti) == phi


def test_roundtrip_zero():
    d = build_lie_data("A1")
    anti = to_cone_basis(GroupRingElt(d, 3), (0,))
    assert anti.terms == {}


def test_roundtrip_generated_family():
    rng = random.Random(31)
    for name in ["A1", "A2", "C2"]:
        d = build_lie_data(name)
        for I in [(0,), (d.rank,)]:
            for _ in range(8):
                m = rng.randint(1, 5)
                phi = GroupRingElt(d, m)
                for _ in range(3):
                    nu = tuple(rng.randint(-3, 4) for _ in range(d.rank))
                    phi = phi + rng.randint(-2, 2) * skew_symmetrize(
                        GroupRingElt.delta(d, m, nu), I
                    )
                assert expand(to_cone_basis(phi, I)) == phi


def test_not_anti_invariant_error_names_generator():
    d = build_lie_data("A1")
    with pytest.raises(NotAntiInvariantError) as exc:
        to_cone_basis(GroupRingElt.delta(d, 3, (1,)), (0,))
    assert exc.value.generator == 1


# -- reskew (integer-exact Sk_I^J) -------------------------------------------------

def test_reskew_examples():
    d = build_lie_data("A1")
    a = AntiInvariant(d, 3, (0, 1), {(2,): 1})
    out = reskew_to(a, (0,))
    assert out.terms == {(2,): 1}
    a = AntiInvariant(d, 3, (0, 1), {(-1,): 1})
    out = reskew_to(a, (0,))
    assert out.terms == {(1,): -1}
    # J = I is the identity
    a = AntiInvariant(d, 3, (0,), {(2,): 5})
    assert reskew_to(a, (0,)).terms == {(2,): 5}


def test_reskew_requires_subset():
    d = build_lie_data("A2")
    a = AntiInvariant(d, 4, (0,), {})
    with pytest.raises(ValueError):
        reskew_to(a, (1,))


def test_reskew_composition():
    # reskew I -> J -> K equals reskew I -> K
    rng = random.Random(13)
    d = build_lie_data("A2")
    I, J, K = (0, 1, 2), (0, 1), (0,)
    for _ in range(20):
        m = rng.randint(2, 5)
        nu = tuple(rng.randint(-4, 6) for _ in range(2))
        try:
            a = AntiInvariant(d, m, I, {nu: rng.randint(-2, 2)})
        except ValueError:
            continue  # nu not I-regular (I full has no constraint, so no skip)
        assert reskew_to(reskew_to(a, J), K).terms == reskew_to(a, K).terms


def test_reskew_matches_division_free_definition():
    # compare against (1/|W_I|) Sk_J on expansions
    rng = random.Random(41)
    for name in ["A1", "A2"]:
        d = build_lie_data(name)
        full = tuple(range(d.rank + 1))
        for J in [(0,), (d.rank,)]:
            order = face_data(d, full).weyl_order
            for _ in range(10):
                m = rng.randint(2, 5)
                nu = tuple(rng.randint(0, 4) for _ in range(d.rank))
                try:
                    a = AntiInvariant(d, m, full, {nu: 1})
                except ValueError:
                    continue
                lhs = expand(reskew_to(a, J))
                rhs = skew_symmetrize(expand(a), J)
                # |W_full| = 1, so Sk_J on the expansion directly
                assert order == 1
                assert lhs == rhs


def test_reskew_matches_skJ_divided():
    # for I = {0} in A1 (|W_I| = 2): Sk_J of the expansion equals
    # |W_I| * expansion of the reskew
    d = build_lie_data("A1")
    m = 4
    I, J = (0, 1), (1,)
    a = AntiInvariant(d, m, I, {(1,): 1, (-2,): 3})
    lhs = expand(reskew_to(a, J))
    rhs = skew_symmetrize(expand(a), J)
    order_I = face_data(d, I).weyl_order  # 1
    assert rhs == order_I * lhs


# -- module action ------------------------------------------------------------------

def test_invariant_action_unit():
    d = build_lie_data("A1")
    a = AntiInvariant(d, 3, (0,), {(1,): 2})
    assert act_invariant(GroupRingElt.unit(d, 3), a) == a


def test_invariant_action_example():
    d = build_lie_data("A1")
    chi = elt(d, 3, ((1,), 1), ((-1,), 1))
    a = AntiInvariant(d, 3, (0,), {(1,): 1})
    out = act_invariant(chi, a)
    assert out.terms == {(2,): 1}


def test_invariant_action_rejects_noninvariant():
    d = build_lie_data("A1")
    a = AntiInvariant(d, 3, (0,), {(1,): 1})
    with pytest.raises(ValueError):
        act_invariant(GroupRingElt.delta(d, 3, (1,)), a)


def test_invariant_action_names_failing_reflection():
    d = build_lie_data("A2")
    a = AntiInvariant(d, 5, (0,), {(1, 1): 1})
    # reflection 1 moves (1, 0); it fixes (0, 1), which reflection 2 moves
    for w, i in [((1, 0), 1), ((0, 1), 2)]:
        with pytest.raises(ValueError, match=f"element is not W-invariant: reflection {i} fails"):
            act_invariant(GroupRingElt.delta(d, 5, w), a)


def test_invariant_action_associative():
    rng = random.Random(8)
    d = build_lie_data("A1")
    m = 5

    def rand_invariant():
        n = rng.randint(0, 3)
        chi = GroupRingElt.unit(d, m)
        orbit = elt(d, m, ((n,), 1), ((-n,), 1)) if n else elt(d, m, ((0,), 1))
        return chi + orbit

    for _ in range(10):
        chi1, chi2 = rand_invariant(), rand_invariant()
        a = AntiInvariant(d, m, (0,), {(rng.randint(1, 3),): rng.randint(-2, 2)})
        assert act_invariant(chi1, act_invariant(chi2, a)) == act_invariant(chi1 * chi2, a)


def test_invariant_action_commutes_with_reskew():
    rng = random.Random(77)
    d = build_lie_data("A2")
    m = 5
    I, J = (0, 1), (0,)
    w1 = (1, 0)
    # W-orbit sum of a weight: invariant by construction
    orbit = {}
    for e in weyl_elements(d, (0,)):
        key = apply_weight(e, w1, 0)
        orbit[key] = 1
    chi = GroupRingElt(d, m, orbit)
    for _ in range(10):
        nu = (rng.randint(1, 3), rng.randint(-3, 3))
        try:
            a = AntiInvariant(d, m, I, {nu: 1})
        except ValueError:
            continue
        lhs = reskew_to(act_invariant(chi, a), J)
        rhs = act_invariant(chi, reskew_to(a, J))
        assert lhs.terms == rhs.terms


def test_json_roundtrip():
    d = build_lie_data("B2")
    phi = elt(d, 4, ((1, 0), 2), ((0, -1), -3))
    doc = groupring_to_json(phi)
    assert groupring_from_json(d, doc) == phi
