"""The sparse base shared by the six element classes: key validation on
outside terms, context checks, and arithmetic that never validates again."""

import random
from fractions import Fraction as F

import pytest

from alcove.fusion import (
    CharacterElt,
    FusionElt,
    LevelRepElt,
    fusion_product,
    level_weights,
)
from alcove.groupring import (
    AntiInvariant,
    GroupRingElt,
    LevelMismatchError,
    expand,
    to_cone_basis,
)
from alcove.lie import build_lie_data
from alcove.resolution import ChainElt, OrbitComplex
from alcove.sparse import SparseElt
from test_groupring import skew_symmetrize

A2 = build_lie_data("A2")
G2 = build_lie_data("G2")


def weights(predicate, bound=4):
    return [
        (a, b)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if predicate((a, b))
    ]


# For each class: the public constructor over terms, a pool of valid keys, a
# key that fails validation, an element with another context, and the error
# class a context mismatch raises.
CASES = {
    "CharacterElt": (
        lambda terms: CharacterElt(A2, terms),
        weights(lambda w: min(w) >= 0),
        (-1, 2),
        CharacterElt(G2, {(1, 0): 1}),
        ValueError,
    ),
    "FusionElt": (
        lambda terms: FusionElt(A2, 3, terms),
        level_weights(A2, 3),
        (2, 2),
        FusionElt(A2, 4, {(0, 0): 1}),
        ValueError,
    ),
    "LevelRepElt": (
        lambda terms: LevelRepElt(A2, (0,), 3, terms),
        weights(lambda w: min(w) >= 0),
        (2, -1),
        LevelRepElt(A2, (1,), 3, {(0, 0): 1}),
        ValueError,
    ),
    "GroupRingElt": (
        lambda terms: GroupRingElt(A2, 5, terms),
        weights(lambda w: True),
        (1, 2, 3),
        GroupRingElt(A2, 6, {(0, 0): 1}),
        LevelMismatchError,
    ),
    "AntiInvariant": (
        lambda terms: AntiInvariant(A2, 5, (0,), terms),
        weights(lambda w: min(w) >= 1),
        (0, 3),
        AntiInvariant(A2, 6, (0,), {(1, 1): 1}),
        LevelMismatchError,
    ),
    "ChainElt": (
        lambda terms: ChainElt((0, 1, 2), 1, terms),
        [
            (I, (F(a, 3), F(b, 3)))
            for I in [(0, 1), (0, 2), (1, 2)]
            for a in range(-2, 3)
            for b in range(-2, 3)
        ],
        ((0,), (F(1, 3), F(1, 3))),
        ChainElt((0, 1), 1, {((0, 1), (F(1, 3), F(1, 3))): 1}),
        ValueError,
    ),
}


def random_terms(rng, pool, size):
    return {key: rng.choice([-3, -2, -1, 1, 2, 3]) for key in rng.sample(pool, size)}


def merged(*pairs):
    """Oracle: the coefficient-wise sum of (scalar, terms) pairs."""
    out = {}
    for scalar, terms in pairs:
        for key, c in terms.items():
            out[key] = out.get(key, 0) + scalar * c
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_outside_key_fails_validation(name):
    make, pool, bad, _, _ = CASES[name]
    with pytest.raises(ValueError):
        make({bad: 1})
    with pytest.raises(ValueError):
        make({pool[0]: 2, bad: -1})
    # every given key is validated, even one whose coefficient is zero
    with pytest.raises(ValueError):
        make({bad: 0})
    assert not make({pool[0]: 0})


@pytest.mark.parametrize("name", sorted(CASES))
def test_context_mismatch_raises(name):
    make, pool, _, other, error = CASES[name]
    a = make({pool[0]: 1})
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(error):
            op(a, other)
        with pytest.raises(error):
            op(other, a)
    assert a != other


def test_mixed_classes_do_not_combine():
    with pytest.raises(ValueError):
        CharacterElt(A2, {(0, 0): 1}) + FusionElt(A2, 3, {(0, 0): 1})
    assert CharacterElt(A2, {(0, 0): 1}) != FusionElt(A2, 3, {(0, 0): 1})


@pytest.mark.parametrize("name", sorted(CASES))
def test_arithmetic_matches_public_constructor(name):
    make, pool, _, _, _ = CASES[name]
    rng = random.Random(17)
    for _ in range(25):
        ta = random_terms(rng, pool, rng.randint(0, 6))
        tb = random_terms(rng, pool, rng.randint(0, 6))
        if ta and rng.random() < 0.3:
            # force a cancellation
            key = next(iter(ta))
            tb[key] = -ta[key]
        a, b = make(ta), make(tb)
        assert a + b == make(merged((1, ta), (1, tb)))
        assert a - b == make(merged((1, ta), (-1, tb)))
        assert -a == make(merged((-1, ta)))
        assert 3 * a == make(merged((3, ta)))
        assert a * 3 == make(merged((3, ta)))
        assert 0 * a == make({})
        assert not (a - a)
        for elt in (a + b, a - b, -a, 3 * a, 0 * a):
            assert all(elt.terms.values())
            assert type(elt) is type(a) and elt._context() == a._context()


@pytest.mark.parametrize("name", sorted(CASES))
def test_arithmetic_makes_no_validation_calls(name, monkeypatch):
    make, pool, _, _, _ = CASES[name]
    rng = random.Random(29)
    a = make(random_terms(rng, pool, 5))
    b = make(random_terms(rng, pool, 5))
    cls = type(a)
    calls = []
    original = cls._validate

    def counting(self, key):
        calls.append(key)
        return original(self, key)

    monkeypatch.setattr(cls, "_validate", counting)
    make({pool[0]: 1})
    assert len(calls) == 1  # the counter sees the public constructor
    calls.clear()
    for _ in range(3):
        a + b, a - b, -a, 3 * a, a * -2, 0 * a
    assert calls == []


def test_cached_fusion_product_makes_no_validation_calls(monkeypatch):
    basis = level_weights(A2, 3)
    pairs = [(FusionElt(A2, 3, {x: 1}), FusionElt(A2, 3, {y: 2})) for x in basis for y in basis]
    expected = [fusion_product(a, b) for a, b in pairs]
    calls = []
    original = FusionElt._validate

    def counting(self, key):
        calls.append(key)
        return original(self, key)

    monkeypatch.setattr(FusionElt, "_validate", counting)
    assert [fusion_product(a, b) for a, b in pairs] == expected
    assert calls == []


def test_library_results_make_no_validation_calls(monkeypatch):
    # elements built beforehand: a cycle and a chain above it, group-ring
    # elements and an anti-invariant; the complexes compute faces (after
    # their own key check) but never validate a result they build
    oc, fresh = OrbitComplex(A2, (0, 1, 2)), OrbitComplex(A2, (0, 1, 2))
    cycle = oc.random_cycle(1, 3, random.Random(5))
    chain = oc.homotopy(2, cycle)
    phi = GroupRingElt(A2, 4, {(1, 0): 2, (0, 3): -1, (2, 2): 1, (-1, 1): 3})
    psi = GroupRingElt(A2, 4, {(0, 1): 1, (-1, 0): 3})
    anti = AntiInvariant(A2, 4, (0,), {(1, 1): 2, (2, 1): -1})
    calls = []
    for cls in (ChainElt, GroupRingElt, AntiInvariant):
        def counting(self, key, original=cls._validate):
            calls.append(key)
            return original(self, key)
        monkeypatch.setattr(cls, "_validate", counting)
    ChainElt((0, 1, 2), 1, {((0, 1), (1, 1)): 1})
    GroupRingElt(A2, 4, {(0, 0): 1})
    AntiInvariant(A2, 4, (0,), {(1, 1): 1})
    assert len(calls) == 3  # the counter sees the public constructors
    calls.clear()
    results = [
        oc.random_cycle(1, 3, random.Random(6)), oc.boundary(chain), fresh.boundary(chain),
        oc.boundary(chain + chain), *(oc.homotopy(i, cycle) for i in range(3)),
        oc.contract_cycle(cycle), fresh.contract_cycle(cycle), oc.deform(1, chain),
    ]
    skewed = skew_symmetrize(phi, (0,))
    results += [skewed, expand(anti), to_cone_basis(skewed, (0,)),
                to_cone_basis(expand(anti), (0,)), phi * psi, psi * phi * phi,
                skew_symmetrize(phi * psi, (1, 2))]
    assert calls == []
    assert all(results) and all(all(r.terms.values()) for r in results)


def test_subclasses_share_one_base():
    for make, pool, _, _, _ in CASES.values():
        elt = make({pool[0]: 1})
        assert isinstance(elt, SparseElt)
        for op in ("__add__", "__sub__", "__neg__", "__rmul__", "__eq__", "__bool__", "__repr__"):
            assert getattr(type(elt), op) is getattr(SparseElt, op)
