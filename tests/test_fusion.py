import cmath
import inspect
import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from alcove.fusion import (
    CharacterElt,
    FusionElt,
    LevelRepElt,
    _centre,
    _check_level,
    _dominant_weights_below,
    _simple_current,
    _special_values,
    _to_level,
    _value_scaled,
    dominant_weight_multiplicities,
    fusion_product,
    fusion_table,
    fusion_unit,
    holomorphic_induction,
    ideal_membership,
    in_level,
    level_weights,
    quotient_map,
    tensor_decompose,
    weight_multiplicities,
    weyl_dimension,
)
from alcove.affine import dominantize_terms, dominantize_walls, weight_wall_value, weyl_orbit
from alcove.groupring import AntiInvariant, GroupRingElt, reskew_to
from alcove.intlinalg import mat_inv
from alcove.lie import (
    CheckFailed,
    _check_face_index,
    _scaled,
    _sharp_scaled,
    alcove_face_of,
    apply_weight,
    b_sharp,
    build_lie_data,
    face_data,
    pairing,
    weyl_elements,
)

RANK_LE_2 = ["A1", "A2", "B2", "C2", "G2"]


# Oracles used only by these tests, moved here from alcove.fusion with their
# bodies unchanged: the Weyl character formula, exhaustive induction, and the
# character value with Fraction phases.


# Used only by the tests (test_resolution imports project_to_fusion); moved
# from alcove.fusion with their bodies unchanged, special_point with that of
# the former fusion._special_scaled, which checked its weight for it.


def special_point(data, nu, k):
    """t_nu = B_sharp(nu + rho)/(k + h_vee), interior to the alcove;
    ValueError unless nu is a level-k weight."""
    _check_level(k)
    nu = tuple(nu)
    if not in_level(data, nu, k):
        raise ValueError(f"{nu} is not a level-{k} weight")
    X, D = _sharp_scaled(data, [a + 1 for a in nu], k + data.dual_coxeter)
    return tuple(F(x, D) for x in X)


def character_value(chi, xi):
    """chi(exp xi) as a sum over the weights of each V_mu of chi."""
    return _value_scaled(chi.data, chi.terms, *_scaled(chi.data, xi))


def project_to_fusion(phi):
    """The map into the fusion ring for a singleton face (full affine
    skew-symmetrization on basis characters)."""
    if len(phi.I) != 1:
        raise ValueError("projection to the fusion ring needs a singleton face")
    return _to_level(phi.data, phi.terms, phi.k)


def _exp2pi(t):
    return cmath.exp(2j * cmath.pi * float(t))


def fraction_character_value(data, mu, xi):
    """chi_mu(exp xi) as a sum over the weights of V_mu, each phase a
    Fraction pairing."""
    return sum(
        m * _exp2pi(pairing(tau, xi))
        for tau, m in weight_multiplicities(data, mu).items()
    )


def fraction_special_point(data, nu, k):
    m = k + data.dual_coxeter
    return tuple(x / m for x in b_sharp(data, tuple(a + 1 for a in nu)))


def weyl_character_value(data, mu, xi):
    """Second numeric oracle: the Weyl character formula quotient at a
    regular point."""
    elts = weyl_elements(data, (0,))
    mu_rho = tuple(x + 1 for x in mu)
    rho = data.rho
    num = sum(e.sign * _exp2pi(pairing(apply_weight(e, mu_rho, 0), xi)) for e in elts)
    den = sum(e.sign * _exp2pi(pairing(apply_weight(e, rho, 0), xi)) for e in elts)
    return num / den


def holomorphic_induction_bruteforce(phi, J):
    """Oracle implementation: search W_J exhaustively for the unique element
    carrying the shifted weight into the strict cone."""
    data = phi.data
    J = _check_face_index(data, J)
    if not set(J) <= set(phi.I):
        raise ValueError(f"{J} is not a subset of {phi.I}")
    m = phi.k + data.dual_coxeter
    walls = [i for i in range(data.rank + 1) if i not in J]
    out = {}
    for mu, c in phi.terms.items():
        shifted = tuple(x + 1 for x in mu)
        hits = []
        for e in weyl_elements(data, J):
            img = apply_weight(e, shifted, m)
            if all(weight_wall_value(data, img, i, m) >= 1 for i in walls):
                hits.append((img, e.sign))
        assert len(hits) <= 1, "strict cone representative is not unique"
        if not hits:
            continue
        img, sign = hits[0]
        key = tuple(x - 1 for x in img)
        out[key] = out.get(key, 0) + sign * c
    return LevelRepElt(data, J, phi.k, out)


def su2_closed_form(k, a, b, c):
    """Known SU(2) level-k fusion rule (validated numerically in the
    acceptance suite)."""
    if (a + b + c) % 2 != 0:
        return 0
    return 1 if abs(a - b) <= c <= min(a + b, 2 * k - a - b) else 0


# -- level weights ---------------------------------------------------------------

def test_level_weights_examples():
    a1 = build_lie_data("A1")
    assert level_weights(a1, 3) == [(0,), (1,), (2,), (3,)]
    assert level_weights(a1, 0) == [(0,)]
    a2 = build_lie_data("A2")
    assert level_weights(a2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert level_weights(build_lie_data("G2"), 0) == [(0, 0)]


def test_level_weights_counts():
    assert len(level_weights(build_lie_data("A2"), 3)) == 10
    assert len(level_weights(build_lie_data("G2"), 1)) == 2
    assert len(level_weights(build_lie_data("C2"), 1)) == 3


def box_level_weights(data, k):
    """Oracle for the order: every point of the box prod_i range(k // a_i + 1)
    over the comarks a_i, in lexicographic order, kept when it is at level k."""
    boxes = [range(k // a + 1) for a in data.comarks]
    return [w for w in itertools.product(*boxes) if in_level(data, w, k)]


def level_weight_count(data, k):
    """Oracle for the number: the x^k coefficient of
    1 / ((1 - x) prod_i (1 - x^{a_i})) over the comarks a_i (Kac,
    Infinite-dimensional Lie algebras, 12.4), by a dynamic program over k."""
    coeffs = [1] * (k + 1)
    for a in data.comarks:
        for m in range(a, k + 1):
            coeffs[m] += coeffs[m - a]
    return coeffs[k]


RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]


@pytest.mark.parametrize("name, top", [(name, 6) for name in RANK_LE_4] + [("E6", 3), ("E7", 3), ("E8", 3)])
def test_level_weights_match_the_box_and_the_count(name, top):
    d = build_lie_data(name)
    for k in range(top + 1):
        weights = level_weights(d, k)
        assert weights == box_level_weights(d, k), k
        assert len(weights) == level_weight_count(d, k), k


def test_level_weights_reads_no_wall_values(monkeypatch):
    # the weights are built at level k, never filtered by their wall values
    from alcove import fusion

    def refuse(*args):
        raise AssertionError("level_weights tested a point")

    monkeypatch.setattr(fusion, "_weight_walls", refuse)
    assert level_weights(build_lie_data("A2"), 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


# -- multiplicities ----------------------------------------------------------------

def test_multiplicities_examples():
    a1 = build_lie_data("A1")
    assert weight_multiplicities(a1, (0,)) == {(0,): 1}
    assert weight_multiplicities(a1, (2,)) == {(2,): 1, (0,): 1, (-2,): 1}
    a2 = build_lie_data("A2")
    mults = weight_multiplicities(a2, (1, 1))
    assert mults[(0, 0)] == 2
    assert sum(mults.values()) == 8


def test_known_dimensions():
    g2 = build_lie_data("G2")
    assert weyl_dimension(g2, (1, 0)) == 7
    assert weyl_dimension(g2, (0, 1)) == 14
    assert weyl_dimension(g2, (1, 1)) == 64
    b2 = build_lie_data("B2")
    assert weyl_dimension(b2, (1, 0)) == 5
    assert weyl_dimension(b2, (0, 1)) == 4
    a2 = build_lie_data("A2")
    assert weyl_dimension(a2, (3, 0)) == 10


def test_multiplicities_nondominant_rejected():
    with pytest.raises(ValueError):
        dominant_weight_multiplicities(build_lie_data("A1"), (-1,))


def test_weyl_dimension_checks_survive_a_warm_cache():
    """The argument checks come before the cache: with other weights of the
    same type cached, a non-dominant and a wrong-rank weight still raise,
    also on a second call."""
    a2 = build_lie_data("A2")
    for mu in itertools.product(range(3), repeat=2):
        weyl_dimension(a2, mu)
    for bad in [(-1, 0), (2, -1), (1,), (1, 1, 0), ()]:
        for _ in range(2):
            with pytest.raises(ValueError):
                weyl_dimension(a2, bad)
    with pytest.raises(ValueError):
        weyl_dimension(build_lie_data("A1"), (1, 1))
    assert weyl_dimension(a2, [1, 1]) == weyl_dimension(a2, iter((1, 1))) == 8


def test_weyl_dimension_kernel_skips_checks(monkeypatch):
    """The public weyl_dimension checks its weight on a cache hit too; the
    private kernels that fusion_table, _product_terms and the dimension
    assertions call check nothing."""
    from alcove import fusion

    a2 = build_lie_data("A2")
    assert weyl_dimension(a2, (2, 1)) == 15
    assert len(weight_multiplicities(a2, (2, 1))) == 12
    calls = []
    for name in ("_check_dominant", "is_dominant", "_weight_walls"):
        monkeypatch.setattr(fusion, name, lambda *a, name=name: calls.append(name))
    assert fusion._weyl_dimension(a2, (2, 1)) == 15
    assert len(fusion._weight_multiplicities(a2, (2, 1))) == 12
    assert calls == []
    assert weyl_dimension(a2, (2, 1)) == 15
    assert calls == ["_check_dominant"]


# Each check of the Weyl dimension and of Freudenthal fires on a copy of the
# A2 root datum corrupted where that check reads it.


def test_weyl_dimension_check_fires_on_a_corrupted_coroot():
    """With the coroot of the highest root read as (2, 1), the Weyl formula
    gives 10/3 for V_(1, 0)."""
    a2 = build_lie_data("A2")
    roots = [*a2.positive_roots[:2], a2.positive_roots[2]._replace(coroot=(2, 1))]
    bad = replace(a2, positive_roots=tuple(roots), _memo={})
    with pytest.raises(CheckFailed, match=r"^Weyl dimension of \(1, 0\) is not a positive integer$"):
        weyl_dimension(bad, (1, 0))


def test_freudenthal_denominator_check_fires_on_a_corrupted_form():
    """Under the form diag(1, 3) in place of the Gram matrix, (0, 1) + rho is
    longer than (2, 0) + rho."""
    bad = replace(build_lie_data("A2"), gram_weight_scaled=(((1, 0), (0, 3)), 1), _memo={})
    with pytest.raises(CheckFailed, match=r"^Freudenthal denominator of \(0, 1\) in V_\(2, 0\) is not positive$"):
        dominant_weight_multiplicities(bad, (2, 0))


def test_freudenthal_integrality_check_fires_on_a_corrupted_form():
    """Under the identity form in place of the Gram matrix, the zero weight
    of the adjoint V_(1, 1) gets multiplicity 4/6."""
    bad = replace(build_lie_data("A2"), gram_weight_scaled=(((1, 0), (0, 1)), 1), _memo={})
    with pytest.raises(CheckFailed, match=r"^Freudenthal multiplicity of \(0, 0\) in V_\(1, 1\) "
                                          r"is not a natural number: 4 / 6$"):
        dominant_weight_multiplicities(bad, (1, 1))


def test_freudenthal_weyl_dimension_check_fires_on_a_corrupted_dimension():
    """A memo that holds 9 as the Weyl dimension of the adjoint V_(1, 1) of
    A2 disagrees with its 8 weights counted by Freudenthal."""
    d = cold("A2")
    d._memo["dim", (1, 1)] = 9
    with pytest.raises(CheckFailed, match=r"^Freudenthal/Weyl dimension mismatch for \(1, 1\)$"):
        weight_multiplicities(d, (1, 1))


def test_tensor_decompose_checks_survive_a_warm_cache():
    """The argument checks come before the cache: with other pairs of the
    same type cached, a non-dominant and a wrong-rank weight still raise, in
    either factor, also on a second call."""
    a2 = build_lie_data("A2")
    weights = list(itertools.product(range(2), repeat=2))
    for lam, mu in itertools.product(weights, repeat=2):
        tensor_decompose(a2, lam, mu)
    for bad in [(-1, 0), (1, -1), (1,), (1, 1, 0), ()]:
        for _ in range(2):
            for pair in [(bad, (1, 0)), ((1, 0), bad)]:
                with pytest.raises(ValueError):
                    tensor_decompose(a2, *pair)
    with pytest.raises(ValueError):
        tensor_decompose(build_lie_data("A1"), (1, 1), (0, 0))
    expect = tensor_decompose(a2, (1, 0), (0, 1))
    assert tensor_decompose(a2, [0, 1], iter((1, 0))) == expect
    assert expect.terms == {(1, 1): 1, (0, 0): 1}


def test_product_factors_skip_checks(monkeypatch):
    """The weight systems that fusion_product reflects, and the tensor
    product terms that CharacterElt products combine, are read through the
    unchecked kernels, while a tensor_decompose hit checks both factors.
    The product kernel swaps its factors, so either order gives the same
    terms, at the Klimyk walls and at the Kac-Walton walls."""
    from alcove import fusion

    a2 = build_lie_data("A2")
    expect = tensor_decompose(a2, (2, 1), (0, 1))
    klimyk, kac_walton = (0, range(1, 3)), (3 + a2.dual_coxeter, range(3))
    fused = fusion._product_terms(a2, (2, 1), (0, 1), *kac_walton)
    calls = []
    for name in ("_check_dominant", "is_dominant", "_weight_walls"):
        monkeypatch.setattr(fusion, name, lambda *a, name=name: calls.append(name))
    assert fusion._product_terms(a2, (0, 1), (2, 1), *klimyk) == expect.terms
    assert fusion._product_terms(a2, (0, 1), (2, 1), *kac_walton) == fused == {(1, 1): 1, (3, 0): 1}
    assert fusion._tensor_decompose(a2, (0, 1), (2, 1)) == expect.terms
    assert calls == []
    assert tensor_decompose(a2, (0, 1), (2, 1)) == expect
    assert calls == ["_check_dominant"] * 2


# A weight with an integral float or a bool coordinate equals and hashes like
# an int weight, so it would hit that weight's cache entry unless checked first.
NOT_WEIGHTS = [(1.0, 0), (0, 1.0), (True, 0), (0, True), (F(1), 0)]


def test_public_weight_functions_check_before_their_caches():
    a2 = build_lie_data("A2")
    weights = list(itertools.product(range(2), repeat=2))
    for lam, mu in itertools.product(weights, repeat=2):
        tensor_decompose(a2, lam, mu)
    for mu in weights:
        weyl_dimension(a2, mu)
        weight_multiplicities(a2, mu)
        dominant_weight_multiplicities(a2, mu)
        character_value(CharacterElt.chi(a2, mu), (F(1, 5), F(1, 7)))
    for bad in NOT_WEIGHTS:
        for _ in range(2):
            for f in (weyl_dimension, weight_multiplicities, dominant_weight_multiplicities):
                with pytest.raises(ValueError, match="not an int"):
                    f(a2, bad)
            for pair in [(bad, (0, 1)), ((0, 1), bad)]:
                with pytest.raises(ValueError, match="not an int"):
                    tensor_decompose(a2, *pair)
            with pytest.raises(ValueError, match="not an int"):
                character_value(CharacterElt.chi(a2, bad), (F(1, 5), F(1, 7)))
    with pytest.raises(ValueError, match="not an int"):
        tensor_decompose(a2, (1.0, 0), (0, True))


def box_walk_dominant_weights_below(data, mu):
    """Oracle: every nonnegative root-lattice vector c in the box bounded by
    the root coordinates of mu, keeping the dominant mu - c, ordered by
    height, then weight."""
    n = data.rank
    cartan_inv = mat_inv(data.cartan)
    bounds = [int(sum(F(mu[i]) * cartan_inv[j][i] for i in range(n))) for j in range(n)]
    out = []
    for c in itertools.product(*(range(b + 1) for b in bounds)):
        lam = tuple(mu[r] - sum(data.cartan[r][j] * c[j] for j in range(n)) for r in range(n))
        if all(x >= 0 for x in lam):
            out.append((sum(c), lam))
    out.sort()
    return [lam for _, lam in out]


def fraction_weyl_dimension(data, mu):
    """Oracle: the Weyl dimension formula as a product of Fractions."""
    num = den = F(1)
    for root in data.positive_roots:
        num *= sum(F((a + 1) * b) for a, b in zip(mu, root.coroot))
        den *= sum(F(b) for b in root.coroot)
    dim = num / den
    assert dim.denominator == 1
    return int(dim)


SMALL_DOMINANT = [
    ("A1", 8), ("A2", 6), ("A3", 3), ("A4", 3), ("B2", 5), ("B3", 3),
    ("C2", 5), ("C3", 3), ("D4", 2), ("G2", 4), ("F4", 2), ("E6", 1),
]


@pytest.mark.parametrize("name,top", SMALL_DOMINANT)
def test_downward_search_matches_box_walk(name, top):
    """Every dominant mu with coordinate sum <= top: the downward root
    search lists the same weights in the same order as the box walk, and
    the integer Weyl dimension equals the Fraction product formula."""
    d = build_lie_data(name)
    for mu in itertools.product(range(top + 1), repeat=d.rank):
        if sum(mu) > top:
            continue
        assert _dominant_weights_below(d, mu) == box_walk_dominant_weights_below(d, mu), mu
        assert weyl_dimension(d, mu) == fraction_weyl_dimension(d, mu), mu


def bfs_weyl_orbit(data, lam):
    """Oracle: breadth-first search over every simple reflection, each wall
    value a dot product with the simple coroot; any start weight."""
    seen = {tuple(lam)}
    frontier = [tuple(lam)]
    while frontier:
        new = []
        for w in frontier:
            for i in range(1, data.rank + 1):
                c = sum(a * b for a, b in zip(w, data.node_coroot[i]))
                img = tuple(x - c * r for x, r in zip(w, data.node_root[i]))
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return sorted(seen)


@pytest.mark.parametrize("name,top", SMALL_DOMINANT)
def test_weyl_orbit_walk_matches_bfs(name, top):
    """Every dominant weight with coordinate sum <= top: the downward walk
    of affine.weyl_orbit at walls 1..l and level 0, the classical Weyl
    orbit, lists the same orbit as the breadth-first search; and the weight
    system that fusion builds from the walk's vectors, on a cold copy, is
    the breadth-first orbits of the oracle's dominant weights, as wall
    vectors (-<tau, theta_vee>, *tau)."""
    from alcove import fusion

    d = build_lie_data(name)
    walls = range(1, d.rank + 1)
    for lam in itertools.product(range(top + 1), repeat=d.rank):
        if sum(lam) > top:
            continue
        assert sorted(weyl_orbit(d, lam, 0, walls)) == bfs_weyl_orbit(d, lam), lam
        expect = {(-sum(a * t for a, t in zip(d.comarks, tau)), *tau): m
                  for nu, m in freudenthal_oracle(d, lam).items() for tau in bfs_weyl_orbit(d, nu)}
        assert fusion._weight_multiplicities(cold(name), lam) == expect, lam


def test_weyl_orbit_rejects_non_dominant():
    # the downward walk from (-1, 2) would miss half of its orbit
    a2 = build_lie_data("A2")
    assert len(bfs_weyl_orbit(a2, (-1, 2))) == 6
    for bad in [(-1, 2), (0, -1), [2, -3]]:
        with pytest.raises(ValueError, match="outside the closed cone"):
            weyl_orbit(a2, bad, 0, (1, 2))
    assert weyl_orbit(a2, [1, 0], 0, (1, 2)) == {(1, 0): 1, (-1, 1): -1, (0, -1): 1}


def freudenthal_oracle(data, mu):
    """Oracle: the Freudenthal recursion as alcove.fusion ran it before each
    positive root entered as a wall vector, moved here unchanged but for its
    checks, which are asserts: inner products by the scaled Gram matrix,
    and each tau = lam + j beta reduced on its own by dominantize_walls."""
    gram, _ = data.gram_weight_scaled

    def ip(a, b):
        return sum(x * sum(g * y for g, y in zip(row, b)) for x, row in zip(a, gram))

    roots = [(root.weight, ip(root.weight, root.weight)) for root in data.positive_roots]
    mu_rho = tuple(x + 1 for x in mu)
    top_norm = ip(mu_rho, mu_rho)
    mu_norm = ip(mu, mu)
    walls = range(1, data.rank + 1)
    mults = {}
    for lam in _dominant_weights_below(data, mu):
        if lam == mu:
            mults[lam] = 1
            continue
        lam_norm = ip(lam, lam)
        total = 0
        for beta, beta_norm in roots:
            lam_beta = ip(lam, beta)
            j = 1
            while lam_norm + j * (2 * lam_beta + j * beta_norm) <= mu_norm:
                tau = tuple(x + j * r for x, r in zip(lam, beta))
                m_tau = mults.get(dominantize_walls(data, tau, 0, walls).weight, 0)
                if m_tau:
                    total += m_tau * (lam_beta + j * beta_norm)
                j += 1
        lam_rho = tuple(x + 1 for x in lam)
        denom = top_norm - ip(lam_rho, lam_rho)
        assert denom > 0
        val, rem = divmod(2 * total, denom)
        assert rem == 0 and val >= 0
        if val:
            mults[lam] = val
    return mults


def fundamental_weights(d):
    return [tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank)]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "F4", "E6", "E7"])
def test_freudenthal_matches_the_per_weight_oracle(name):
    """Every dominant mu with coordinate sum <= 3 for the types of rank <=
    3, the fundamental weights of F4, E6 and E7: the same multiplicities in
    the same order as the oracle."""
    d = build_lie_data(name)
    if d.rank <= 3:
        weights = [mu for mu in itertools.product(range(4), repeat=d.rank) if sum(mu) <= 3]
    else:
        weights = fundamental_weights(d)
    for mu in weights:
        got = dominant_weight_multiplicities(d, mu)
        assert list(got.items()) == list(freudenthal_oracle(d, mu).items()), mu


def test_weight_system_is_one_memo_entry_of_wall_vectors():
    """Each weight system is cached once, under ("weights", mu), as wall
    vectors (-<tau, theta_vee>, *tau) that weight_multiplicities reads; a
    tensor product, a fusion product and a character value all share it."""
    from alcove import fusion

    d = cold("A2")
    tensor_decompose(d, (2, 1), (1, 0))
    fusion_product(FusionElt(d, 3, {(2, 1): 1}), FusionElt(d, 3, {(1, 0): 1}))
    character_value(CharacterElt.chi(d, (1, 0)), (F(1, 5), F(1, 7)))
    assert sorted(key for key in d._memo if key[0] == "weights") == [("weights", (1, 0))]
    cached = d._memo["weights", (1, 0)]
    assert cached == {(-1, 1, 0): 1, (0, -1, 1): 1, (1, 0, -1): 1}
    assert weight_multiplicities(d, (1, 0)) == {vec[1:]: m for vec, m in cached.items()}
    for name in ["B3", "G2", "F4"]:
        e = build_lie_data(name)
        for mu in fundamental_weights(e):
            for vec in fusion._weight_multiplicities(e, mu):
                assert vec[0] == weight_wall_value(e, vec[1:], 0, 0)


# -- tensor products -----------------------------------------------------------------

def test_tensor_examples():
    a1 = build_lie_data("A1")
    assert tensor_decompose(a1, (1,), (0,)).terms == {(1,): 1}
    assert tensor_decompose(a1, (1,), (1,)).terms == {(0,): 1, (2,): 1}
    a2 = build_lie_data("A2")
    assert tensor_decompose(a2, (1, 0), (0, 1)).terms == {(0, 0): 1, (1, 1): 1}


def test_tensor_su2_series():
    a1 = build_lie_data("A1")
    for a in range(5):
        for b in range(5):
            got = tensor_decompose(a1, (a,), (b,)).terms
            expect = {(c,): 1 for c in range(abs(a - b), a + b + 1, 2)}
            assert got == expect


def test_tensor_dimension_multiplicative():
    rng = random.Random(4)
    for name in RANK_LE_2:
        d = build_lie_data(name)
        for _ in range(5):
            lam = tuple(rng.randint(0, 2) for _ in range(d.rank))
            mu = tuple(rng.randint(0, 2) for _ in range(d.rank))
            dec = tensor_decompose(d, lam, mu)
            assert sum(c * weyl_dimension(d, w) for w, c in dec.terms.items()) == (
                weyl_dimension(d, lam) * weyl_dimension(d, mu)
            )


# -- quotient map --------------------------------------------------------------------

def test_quotient_examples():
    a1 = build_lie_data("A1")
    assert not quotient_map(CharacterElt.chi(a1, (2,)), 1)
    assert quotient_map(CharacterElt.chi(a1, (3,)), 1).terms == {(1,): -1}
    assert quotient_map(CharacterElt.chi(a1, (1,)), 1).terms == {(1,): 1}


def test_quotient_is_ring_map():
    rng = random.Random(19)
    for name in ["A1", "A2", "C2"]:
        d = build_lie_data(name)
        for k in (1, 2):
            m = k + d.dual_coxeter
            for _ in range(20):
                lam = tuple(rng.randint(0, 2) for _ in range(d.rank))
                mu = tuple(rng.randint(0, 2) for _ in range(d.rank))
                lhs = quotient_map(tensor_decompose(d, lam, mu), k)
                rhs = fusion_product(
                    quotient_map(CharacterElt.chi(d, lam), k),
                    quotient_map(CharacterElt.chi(d, mu), k),
                )
                assert lhs == rhs


def cold(name):
    """A copy of the root datum of name with an empty memo."""
    return replace(build_lie_data(name), _memo={})


def a1_box_squared():
    box = FusionElt(cold("A1"), 2, {(1,): 1})
    return fusion_product(box, box)


# Corruptions of the cached weight system, the wall vectors of the weights
# of the smaller factor that the product kernel reflects.
def negated(weight_system):
    return lambda *args: {vec: -m for vec, m in weight_system(*args).items()}


def with_5_5(weight_system):
    from alcove import fusion

    return lambda data, mu: {**weight_system(data, mu), fusion._wall_vector(data, (5, 5)): 1}


@pytest.mark.parametrize("corrupt, product, message", [
    (negated, a1_box_squared, "negative fusion coefficient"),
    (negated, lambda: tensor_decompose(cold("A2"), (1, 0), (0, 1)),
     "Klimyk produced a negative multiplicity"),
    (with_5_5, lambda: tensor_decompose(cold("A2"), (1, 0), (0, 1)),
     r"Klimyk dimension mismatch for \(1, 0\) \(x\) \(0, 1\)"),
], ids=["kac-walton-positivity", "klimyk-positivity", "klimyk-dimension"])
def test_corrupted_factor_weights_fail_their_check(monkeypatch, corrupt, product, message):
    # each of the three checks on the reflected terms fires, with its own
    # message, on a datum with an empty memo: no cached product hides it
    from alcove import fusion

    monkeypatch.setattr(fusion, "_weight_multiplicities", corrupt(fusion._weight_multiplicities))
    with pytest.raises(AssertionError, match=rf"^{message}$"):
        product()


def test_quotient_map_property_rank_three():
    # seeded: on A3, B3 and C3 at k <= 3 the quotient map is a ring
    # homomorphism, and on a datum with an empty memo it agrees with a
    # direct walk of all terms both cold (table misses) and warm (hits)
    from alcove.affine import dominantize_terms

    rng = random.Random(12)
    for name in ["A3", "B3", "C3"]:
        d = cold(name)
        pool = [w for w in itertools.product(range(4), repeat=3) if sum(w) <= 3]

        def rand_char():
            return CharacterElt(d, {w: rng.choice((-2, -1, 1, 2)) for w in rng.sample(pool, 2)})

        for k in range(4):
            for _ in range(20):
                a, b = rand_char(), rand_char()
                assert quotient_map(a * b, k) == fusion_product(quotient_map(a, k), quotient_map(b, k))
            walls = range(d.rank + 1)
            chi = CharacterElt(d, {w: rng.randint(1, 3) for w in rng.sample(pool, 6)} | {(5, 0, 3): 1})
            expect = dominantize_terms(d, chi.terms, k + d.dual_coxeter, walls, 1)
            assert (5, 0, 3) not in d._memo["quotient", k]
            first = quotient_map(chi, k).terms
            assert (5, 0, 3) in d._memo["quotient", k]
            assert first == expect == quotient_map(chi, k).terms


def test_results_do_not_alias_the_caches():
    # the results are built trusted: mutating their terms must not reach
    # the tensor, fusion or quotient entries of the memo, so a repeated call
    # on a datum with an empty memo (a miss first, then hits) still returns
    # the original terms
    d = cold("A2")
    a = CharacterElt(d, {(1, 0): 2, (0, 2): -1})
    b = CharacterElt(d, {(1, 1): 1})
    calls = [
        lambda: tensor_decompose(d, (2, 1), (1, 1)),
        lambda: quotient_map(CharacterElt.chi(d, (3, 1)), 2),
        lambda: quotient_map(a, 2),
        lambda: fusion_product(FusionElt(d, 2, {(1, 0): 1}), FusionElt(d, 2, {(1, 1): 1})),
        lambda: fusion_product(quotient_map(a, 2), quotient_map(b, 2)),
        lambda: a * b,
        lambda: project_to_fusion(LevelRepElt(d, (0,), 2, {(1, 0): 1})),
    ]
    for call in calls:
        for _ in range(3):
            got = call()
            original = dict(got.terms)
            assert original
            for key in list(got.terms):
                got.terms[key] += 7
            got.terms[(9, 9)] = 1
            assert call().terms == original
    mults = weight_multiplicities(d, (2, 1))
    original = dict(mults)
    mults[(9, 9)] = 1
    assert weight_multiplicities(d, (2, 1)) == original


def sampled_public_calls(d, rng):
    """A seeded sample of public calls on the type of d at levels k <= 3,
    each a function of a root datum of that type."""
    l = d.rank
    nodes = range(l + 1)
    dominant = [w for w in itertools.product(range(3), repeat=l) if sum(w) <= 2]
    calls = []
    for I in rng.sample([I for r in range(1, l + 2) for I in itertools.combinations(nodes, r)], 4):
        calls.append(lambda e, I=I: face_data(e, I))
    for mu in rng.sample(dominant, 4):
        calls.append(lambda e, mu=mu: weyl_dimension(e, mu))
        calls.append(lambda e, mu=mu: weight_multiplicities(e, mu))
        calls.append(lambda e, mu=mu: dominant_weight_multiplicities(e, mu))
    for _ in range(4):
        lam, mu = rng.choice(dominant), rng.choice(dominant)
        calls.append(lambda e, lam=lam, mu=mu: tensor_decompose(e, lam, mu))

    def pick(pool, n):
        return {w: rng.choice((-2, -1, 1, 2)) for w in rng.sample(pool, min(n, len(pool)))}

    for k in range(4):
        basis = level_weights(d, k)
        a, b, chi = pick(basis, 3), pick(basis, 3), pick(dominant, 4)
        nu = {tuple(rng.randint(-2, 3) for _ in range(l)): rng.randint(1, 3) for _ in range(4)}
        J = tuple(sorted(rng.sample(nodes, rng.randint(1, l + 1))))
        calls.append(lambda e, k=k, a=a, b=b: fusion_product(FusionElt(e, k, a), FusionElt(e, k, b)))
        calls.append(lambda e, k=k, chi=chi: quotient_map(CharacterElt(e, chi), k))
        calls.append(lambda e, k=k, nu=nu, J=J: holomorphic_induction(LevelRepElt(e, nodes, k, nu), J))
        calls.append(lambda e, k=k: fusion_table(e, k))
    return calls


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_public_answers_do_not_depend_on_the_memo(name):
    """Every sampled call gives the same answer on a warm datum, one that
    has served all the calls twice in a seeded shuffled order, as on a copy
    with an empty memo, and as on the shared datum of build_lie_data."""
    rng = random.Random(f"memo-{name}")
    calls = sampled_public_calls(build_lie_data(name), rng)
    warm = cold(name)
    answers = {}
    for _ in range(2):
        order = list(range(len(calls)))
        rng.shuffle(order)
        for i in order:
            got = calls[i](warm)
            assert answers.setdefault(i, got) == got, i
    assert {key[0] for key in warm._memo} >= {"face", "dim", "weights", "tensor", "fusion", "quotient"}
    for i, call in enumerate(calls):
        assert call(cold(name)) == answers[i] == call(build_lie_data(name)), i


def test_fusion_table_leaves_no_product_in_the_memo():
    for name, k in [("A2", 3), ("B2", 2), ("G2", 2), ("D4", 2)]:
        d = cold(name)
        table = fusion_table(d, k)
        assert table == per_pair_fusion_table(build_lie_data(name), k)
        assert not [key for key in d._memo if key[0] == "fusion"], name


# -- fusion products -----------------------------------------------------------------

def test_fusion_examples():
    a1 = build_lie_data("A1")
    w = FusionElt(a1, 1, {(1,): 1})
    assert fusion_product(w, w).terms == {(0,): 1}
    two = FusionElt(a1, 2, {(2,): 1})
    assert fusion_product(two, two).terms == {(0,): 1}
    a = FusionElt(a1, 2, {(1,): 2, (2,): -1})
    assert fusion_product(a, fusion_unit(a1, 2)) == a


def test_fusion_su2_closed_form():
    a1 = build_lie_data("A1")
    for k in (1, 2, 3, 4):
        basis = level_weights(a1, k)
        for (a,), (b,) in itertools.product(basis, repeat=2):
            prod = fusion_product(FusionElt(a1, k, {(a,): 1}), FusionElt(a1, k, {(b,): 1}))
            for (c,) in basis:
                assert prod.terms.get((c,), 0) == su2_closed_form(k, a, b, c)


# every type up to E6 at the levels that keep the run short: 1,400 pairs
KAC_WALTON_CASES = [
    ("A1", 8), ("A2", 5), ("B2", 4), ("C2", 4), ("G2", 4),
    ("A3", 2), ("B3", 2), ("C3", 2), ("D4", 2), ("F4", 2), ("E6", 2),
]


@pytest.mark.parametrize("name,top", KAC_WALTON_CASES)
def test_fusion_product_matches_klimyk_then_quotient(name, top):
    """Kac-Walton in one affine reduction equals the Klimyk decomposition
    followed by the quotient map, on every unordered pair of level weights
    for k <= top."""
    d = build_lie_data(name)
    for k in range(top + 1):
        basis = level_weights(d, k)
        for i, a in enumerate(basis):
            for b in basis[i:]:
                prod = fusion_product(FusionElt(d, k, {a: 1}), FusionElt(d, k, {b: 1}))
                assert prod == quotient_map(tensor_decompose(d, a, b), k), (k, a, b)


def test_fusion_product_miss_skips_klimyk_and_quotient(monkeypatch):
    from alcove import fusion

    def forbidden(*args):
        raise AssertionError("a fusion_product miss must not call this")

    monkeypatch.setattr(fusion, "tensor_decompose", forbidden)
    monkeypatch.setattr(fusion, "quotient_map", forbidden)
    a2 = cold("A2")
    box = FusionElt(a2, 2, {(1, 0): 1})
    assert fusion_product(box, box).terms == {(2, 0): 1, (0, 1): 1}
    assert [key for key in a2._memo if key[0] == "fusion"] == [("fusion", 2, (1, 0), (1, 0))]


def test_negative_levels_are_refused():
    a2 = build_lie_data("A2")
    for make in [
        lambda: FusionElt(a2, -1, {}),
        lambda: LevelRepElt(a2, (0, 1), -1, {}),
        lambda: fusion_unit(a2, -1),
        lambda: special_point(a2, (0, 0), -1),
        lambda: quotient_map(CharacterElt(a2, {}), -1),
        lambda: level_weights(a2, -1),
    ]:
        with pytest.raises(ValueError, match="^level must be >= 0$"):
            make()
    assert FusionElt(a2, 0, {(0, 0): 1}) == fusion_unit(a2, 0)
    assert special_point(a2, (0, 0), 0) == (F(1, 3), F(1, 3))


def test_fusion_level_mismatch():
    a1 = build_lie_data("A1")
    with pytest.raises(ValueError):
        fusion_product(fusion_unit(a1, 1), fusion_unit(a1, 2))


def test_fusion_table_a1_k2_has_ten_entries():
    rows = fusion_table(build_lie_data("A1"), 2)
    # stored with a <= b; symmetric count doubles the off-diagonal rows
    full = sum(2 if a != b else 1 for a, b, _, _ in rows)
    assert full == 10


def test_fusion_k0_is_trivial_ring():
    for name in ["A1", "G2"]:
        d = build_lie_data(name)
        assert level_weights(d, 0) == [(0,) * d.rank]
        u = fusion_unit(d, 0)
        assert fusion_product(u, u) == u


def test_e8_level_two_is_ising():
    e8 = build_lie_data("E8")
    zero, w8, w1 = (0,) * 8, (0,) * 7 + (1,), (1,) + (0,) * 7
    assert level_weights(e8, 2) == [zero, w8, w1]
    assert weyl_dimension(e8, w8) == 248
    assert weyl_dimension(e8, w1) == 3875
    assert fusion_table(e8, 2) == [
        (zero, zero, zero, 1),
        (zero, w8, w8, 1),
        (zero, w1, w1, 1),
        (w8, w8, zero, 1),
        (w8, w8, w1, 1),
        (w8, w1, w8, 1),
        (w1, w1, zero, 1),
    ]


# every type of rank <= 4 with a nontrivial centre, plus A5, D5-D7, E6 and E7
CENTRE_CASES = [
    ("A1", 6), ("A2", 5), ("A3", 4), ("A4", 3), ("A5", 2),
    ("B2", 4), ("B3", 3), ("B4", 2), ("C2", 4), ("C3", 3), ("C4", 2),
    ("D4", 3), ("D5", 2), ("D6", 2), ("D7", 1), ("E6", 2), ("E7", 2),
]


def special_nodes(d):
    return [0] + [j for j, mark in enumerate(d.marks, 1) if mark == 1]


def per_pair_fusion_table(d, k):
    """The fusion table by one Kac-Walton product per pair a <= b."""
    basis = level_weights(d, k)
    rows = []
    for i, a in enumerate(basis):
        for b in basis[i:]:
            prod = fusion_product(FusionElt(d, k, {a: 1}), FusionElt(d, k, {b: 1}))
            rows.extend((a, b, c, n) for c, n in sorted(prod.terms.items()))
    return rows


@pytest.mark.parametrize("name,top", CENTRE_CASES)
def test_simple_current_is_fusion_with_k_omega_j(name, top):
    """The geometric sigma_j(lam) is the single term, with coefficient 1, of
    k omega_j * lam, for every level weight lam and every node j with mark 1;
    node 0 is the identity, and at k >= 1 the special nodes give distinct
    currents, so the centre has one element per special node."""
    d = build_lie_data(name)
    for k in range(top + 1):
        basis = level_weights(d, k)
        index = {w: i for i, w in enumerate(basis)}
        for j in special_nodes(d):
            k_omega = tuple(k if i == j else 0 for i in range(1, d.rank + 1))
            images = _simple_current(d, basis, index, k, j)
            for lam, img in zip(basis, images):
                prod = fusion_product(FusionElt(d, k, {k_omega: 1}), FusionElt(d, k, {lam: 1}))
                assert prod.terms == {basis[img]: 1}, (k, j, lam)
        centre = _centre(d, basis, index, k)
        assert centre[0] == tuple(range(len(basis)))
        assert len(centre) == (len(special_nodes(d)) if k else 1)


@pytest.mark.parametrize("name,top", CENTRE_CASES + [("G2", 4), ("F4", 2), ("E8", 2)])
def test_folded_fusion_table_matches_per_pair(name, top):
    d = build_lie_data(name)
    for k in range(top + 1):
        assert fusion_table(d, k) == per_pair_fusion_table(d, k), k


@pytest.mark.parametrize("name,k", [("A1", 3), ("A2", 3), ("B3", 2), ("C3", 2),
                                    ("D4", 2), ("D5", 2), ("E6", 2), ("E7", 2)])
@pytest.mark.parametrize("partner", ["own-image", "next-weight"])
def test_folded_table_rejects_a_current_outside_the_centre(monkeypatch, name, k, partner):
    """Swapping two images of one sigma_j gives a permutation outside Z(G):
    the folded table then fails, by an internal assertion or by differing
    from the per-pair table.  The swap exchanges the images of the unit and
    of its own image, or of the unit and the next basis weight."""
    from alcove import fusion

    d = build_lie_data(name)
    j = special_nodes(d)[1]
    honest = fusion._simple_current

    def swapped(data, basis, index, level, node):
        images = list(honest(data, basis, index, level, node))
        if node == j:
            other = images[0] if partner == "own-image" else 1
            images[0], images[other] = images[other], images[0]
        return tuple(images)

    expected = per_pair_fusion_table(d, k)
    monkeypatch.setattr(fusion, "_simple_current", swapped)
    try:
        folded = fusion_table(d, k)
    except AssertionError as exc:
        assert str(exc) in ("the simple currents are not a group", "centre symmetry broken",
                            "S3 fill left a pair empty")
    else:
        assert folded != expected


def unfolded_fusion_table(d, k):
    """Oracle: the fusion table with no fold, one uncached Kac-Walton
    product per pair a <= b."""
    from alcove import fusion

    basis = level_weights(d, k)
    return [
        (a, b, c, n)
        for i, a in enumerate(basis)
        for b in basis[i:]
        for c, n in sorted(fusion._kac_walton(d, k, a, b).items())
    ]


# the types with a nontrivial charge conjugation, and G2, B3, C3 and F4, where
# it is the identity
CONJUGATION_CASES = [("A2", 9), ("A3", 3), ("A4", 2), ("D5", 2), ("E6", 2), ("G2", 3),
                     ("B3", 2), ("C3", 3), ("F4", 2)]
SELF_CONJUGATE = ("G2", "B3", "C3", "F4")


@pytest.mark.parametrize("name,top", CONJUGATION_CASES)
def test_fold_by_centre_and_conjugation_matches_unfolded_oracle(name, top):
    """At every level k <= top the table folded by the centre, conjugation
    and the S3 symmetry equals the unfolded oracle, and charge conjugation
    is the identity exactly at k = 0 and for the self-conjugate types."""
    from alcove import fusion

    d = build_lie_data(name)
    for k in range(top + 1):
        basis = level_weights(d, k)
        conj = fusion._conjugation(d, basis, {w: i for i, w in enumerate(basis)})
        assert (conj == tuple(range(len(basis)))) == (k == 0 or name in SELF_CONJUGATE), k
        assert sorted(conj) == list(range(len(basis))), k
        assert fusion_table(d, k) == unfolded_fusion_table(d, k), k


def pair_orbits(d, k, conjugate):
    """The orbits of pairs {a, b} of level-k weights under Z(G), and under
    charge conjugation too if conjugate."""
    from alcove import fusion

    basis = level_weights(d, k)
    index = {w: i for i, w in enumerate(basis)}
    centre = _centre(d, basis, index, k)
    maps = [centre[0], fusion._conjugation(d, basis, index)] if conjugate else [centre[0]]
    n = len(basis)
    return len({
        frozenset(tuple(sorted((g[s[a]], g[t[b]]))) for g in maps for s in centre for t in centre)
        for a in range(n) for b in range(a, n)
    })


def test_conjugation_fold_runs_fewer_kac_walton_products(monkeypatch):
    """The pairs {a, b} of the basis, their orbits under the centre alone
    and under the centre and charge conjugation, against the uncached
    Kac-Walton products that fusion_table runs with the S3 fold: one per
    orbit of pairs within a part, about half the orbits.  The last five
    tables are the fusion-tables benchmark jobs."""
    from alcove import fusion

    calls = []
    honest = fusion._kac_walton
    monkeypatch.setattr(fusion, "_kac_walton", lambda *args: calls.append(args) or honest(*args))
    for name, k, pairs, centre_only, conjugate, folded in [
        ("A3", 3, 210, 15, 11, 7), ("A2", 9, 1540, 190, 106, 58), ("G2", 6, 136, 136, 136, 72),
        ("C3", 3, 210, 55, 55, 30), ("E6", 2, 45, 6, 6, 4), ("E7", 2, 21, 10, 10, 6),
    ]:
        d = build_lie_data(name)
        n = len(level_weights(d, k))
        assert n * (n + 1) // 2 == pairs
        assert (pair_orbits(d, k, False), pair_orbits(d, k, True)) == (centre_only, conjugate), name
        calls.clear()
        fusion_table(d, k)
        assert len(calls) == folded, name


@pytest.mark.parametrize("name,k", [("A2", 1), ("A2", 3), ("A3", 2), ("A4", 2), ("D5", 1), ("E6", 2)])
def test_fold_rejects_a_wrong_conjugation(monkeypatch, name, k):
    """Swapping the images of the first two basis weights under charge
    conjugation gives a permutation that is no symmetry of the table: the
    fold then fails its symmetry check, or the check that the parts of the
    S3 fold are unions of classes, or differs from the oracle."""
    from alcove import fusion

    d = build_lie_data(name)
    honest = fusion._conjugation

    def swapped(data, basis, index):
        images = list(honest(data, basis, index))
        images[0], images[1] = images[1], images[0]
        return tuple(images)

    expected = unfolded_fusion_table(d, k)
    monkeypatch.setattr(fusion, "_conjugation", swapped)
    try:
        folded = fusion_table(d, k)
    except CheckFailed as exc:
        assert str(exc) in ("centre symmetry broken", "the parts of the S3 fold are not unions of classes")
    else:
        assert folded != expected


@pytest.mark.parametrize("name,k", [("A2", 1), ("A2", 3), ("A3", 2), ("A3", 3), ("A4", 2), ("D5", 2), ("E6", 2)])
def test_s3_fill_rejects_the_identity_for_conjugation(monkeypatch, name, k):
    """The identity in place of charge conjugation is still a symmetry of
    the centre fold, so only the S3 fill goes wrong: it then reads N_xy^z
    as N_{x z}^{y}, and an entry it reaches on a computed row differs."""
    from alcove import fusion

    monkeypatch.setattr(fusion, "_conjugation", lambda data, basis, index: tuple(range(len(basis))))
    with pytest.raises(CheckFailed, match=r"^S3 symmetry broken$"):
        fusion_table(cold(name), k)


@pytest.mark.parametrize("name,k", [("A1", 3), ("A2", 3), ("A3", 3), ("B3", 2), ("C3", 2), ("D4", 2),
                                    ("E6", 2), ("E7", 2)])
@pytest.mark.parametrize("moved", ["unit", "current"])
def test_s3_fold_rejects_parts_that_are_not_closed(monkeypatch, name, k, moved):
    """Moving the unit, or its image under a simple current, to the other
    part splits the class of the unit, so the parts are not unions of
    classes under the centre and conjugation.  An orbit of pairs within a
    part would then leave it, and the fill would write over rows the
    products wrote; the fold refuses such parts."""
    from alcove import fusion

    honest = fusion._split

    def moved_split(dims, centre, conjugations):
        part = honest(dims, centre, conjugations)
        part[0 if moved == "unit" else centre[-1][0]] ^= 1
        return part

    monkeypatch.setattr(fusion, "_split", moved_split)
    with pytest.raises(CheckFailed, match=r"^the parts of the S3 fold are not unions of classes$"):
        fusion_table(cold(name), k)


def test_s3_fill_check_rejects_a_table_with_an_empty_pair(monkeypatch):
    """The transposition of the weights 1 and 2 of A1 at k = 3, in place of
    the simple current of node 1, is a group with the identity but no
    symmetry of the table.  The centre fold carries rows by it that agree
    with each other, and the fill from them reaches no entry of the pairs
    {1, 3} and {2, 3}."""
    from alcove import fusion

    honest = fusion._simple_current

    def transposed(data, basis, index, k, j):
        return (0, 2, 1, 3) if j == 1 else honest(data, basis, index, k, j)

    monkeypatch.setattr(fusion, "_simple_current", transposed)
    with pytest.raises(CheckFailed, match=r"^S3 fill left a pair empty$"):
        fusion_table(cold("A1"), 3)


def test_centre_check_rejects_currents_that_are_not_a_group(monkeypatch):
    """A transposition in place of the simple current of node 1 of A2 at
    k = 2 is not closed under composition with that of node 2."""
    from alcove import fusion

    honest = fusion._simple_current

    def transposed(data, basis, index, k, j):
        return (1, 0, *range(2, len(basis))) if j == 1 else honest(data, basis, index, k, j)

    monkeypatch.setattr(fusion, "_simple_current", transposed)
    with pytest.raises(CheckFailed, match=r"^the simple currents are not a group$"):
        fusion_table(cold("A2"), 2)


# -- special points and numeric values -------------------------------------------------

def test_special_point_examples():
    a1 = build_lie_data("A1")
    assert special_point(a1, (0,), 1) == (F(1, 6),)
    assert special_point(a1, (1,), 1) == (F(1, 3),)
    with pytest.raises(ValueError):
        special_point(a1, (2,), 1)


def test_special_points_interior():
    for name in RANK_LE_2:
        d = build_lie_data(name)
        for k in (0, 1, 2):
            for nu in level_weights(d, k):
                xi = special_point(d, nu, k)
                assert alcove_face_of(d, xi) == tuple(range(d.rank + 1))


RING_TYPES = ["A1", "A2", "B2", "C2", "G2", "A3", "B3"]


@pytest.mark.parametrize("name", RING_TYPES)
def test_integer_phases_match_fraction_oracle(name):
    """At every level-k special point, k <= 3, the special point equals the
    Fraction formula and every level-k character value agrees with the
    Fraction-phase sum to 1e-12, at the special point and through the
    special-point evaluator."""
    d = build_lie_data(name)
    for k in (1, 2, 3):
        basis = level_weights(d, k)
        scaled = {mu: list(_special_values(d, {mu: 1}, k)) for mu in basis}
        for i, nu in enumerate(basis):
            xi = special_point(d, nu, k)
            assert xi == fraction_special_point(d, nu, k)
            for mu in basis:
                expected = fraction_character_value(d, mu, xi)
                assert abs(character_value(CharacterElt.chi(d, mu), xi) - expected) < 1e-12
                assert abs(scaled[mu][i] - expected) < 1e-12


def test_special_values_match_the_fraction_route():
    """_special_values, the one evaluation at all special points, yields
    character_value at special_point for every level weight in
    level_weights order, rank <= 2 and k <= 3: on each basis character, on
    a virtual character and on one above the level; lazily."""
    for name in RANK_LE_2:
        d = build_lie_data(name)
        for k in (0, 1, 2, 3):
            basis = level_weights(d, k)
            above = (k + 1,) + (0,) * (d.rank - 1)
            virtual = {basis[0]: 2, basis[-1]: -1, above: 3}
            for terms in [{mu: 1} for mu in basis] + [virtual, {above: 1}]:
                chi = CharacterElt(d, terms)
                values = _special_values(d, terms, k)
                assert inspect.isgenerator(values)
                expected = [character_value(chi, special_point(d, nu, k)) for nu in basis]
                got = list(values)
                assert len(got) == len(expected)
                assert all(abs(g - e) < 1e-12 for g, e in zip(got, expected)), (name, k, terms)


def test_character_value_examples():
    a1 = build_lie_data("A1")
    t0 = special_point(a1, (0,), 1)
    assert abs(character_value(CharacterElt.chi(a1, (0,)), t0) - 1) < 1e-12
    assert abs(character_value(CharacterElt.chi(a1, (1,)), t0) - 1.0) < 1e-12
    assert abs(character_value(CharacterElt.chi(a1, (2,)), t0)) < 1e-12


def test_character_value_against_weyl_formula():
    rng = random.Random(6)
    for name in ["A1", "A2", "C2"]:
        d = build_lie_data(name)
        for _ in range(8):
            mu = tuple(rng.randint(0, 2) for _ in range(d.rank))
            nu = rng.choice(level_weights(d, 2))
            xi = special_point(d, nu, 2)
            direct = character_value(CharacterElt.chi(d, mu), xi)
            quotient = weyl_character_value(d, mu, xi)
            assert abs(direct - quotient) < 1e-9


def test_ideal_membership_examples():
    a1 = build_lie_data("A1")
    assert ideal_membership(CharacterElt.chi(a1, (2,)), 1)
    assert not ideal_membership(CharacterElt.chi(a1, (0,)), 1)
    assert ideal_membership(
        CharacterElt.chi(a1, (3,)) + CharacterElt.chi(a1, (1,)), 1
    )


def test_ideal_membership_disagreement_fails_its_check(monkeypatch):
    # chi_2 lies in the level-1 ideal of A1; a nonzero value at a special
    # point makes the numeric route disagree with the exact one
    from alcove import fusion

    monkeypatch.setattr(fusion, "_special_values", lambda data, terms, k: iter([1.0]))
    message = "exact and numeric ideal tests disagree for k=1: exact=True, numeric=False"
    with pytest.raises(CheckFailed, match=rf"^{message}$"):
        ideal_membership(CharacterElt.chi(build_lie_data("A1"), (2,)), 1)


def test_ideal_membership_random_corpus():
    rng = random.Random(15)
    for name in ["A1", "A2"]:
        d = build_lie_data(name)
        for _ in range(15):
            chi = CharacterElt(d)
            for _ in range(2):
                w = tuple(rng.randint(0, 3) for _ in range(d.rank))
                chi = chi + rng.randint(-2, 2) * CharacterElt.chi(d, w)
            ideal_membership(chi, rng.randint(1, 2))  # raises on disagreement


# -- holomorphic induction ---------------------------------------------------------------

def test_induction_identity():
    a1 = build_lie_data("A1")
    phi = LevelRepElt(a1, (0, 1), 1, {(3,): 2})
    assert holomorphic_induction(phi, (0, 1)) == phi


def test_induction_refuses_a_face_outside_the_source():
    phi = LevelRepElt(build_lie_data("A2"), (0, 1), 1, {(0, 0): 1})
    for J, text in [((0, 2), r"\(0, 2\)"), ((2,), r"\(2,\)")]:
        with pytest.raises(ValueError, match=rf"^{text} is not a subset of \(0, 1\)$"):
            holomorphic_induction(phi, J)


def test_induction_frozen_values():
    # frozen by the exhaustive W_J search oracle
    a1 = build_lie_data("A1")
    phi = LevelRepElt(a1, (0, 1), 1, {(3,): 1})
    assert holomorphic_induction_bruteforce(phi, (0,)).terms == {(3,): 1}
    assert holomorphic_induction(phi, (0,)).terms == {(3,): 1}
    phi = LevelRepElt(a1, (0, 1), 1, {(4,): 1})
    assert holomorphic_induction_bruteforce(phi, (1,)).terms == {(0,): -1}
    assert holomorphic_induction(phi, (1,)).terms == {(0,): -1}


def test_induction_matches_bruteforce():
    rng = random.Random(23)
    for name in ["A1", "A2"]:
        d = build_lie_data(name)
        full = tuple(range(d.rank + 1))
        for k in (1, 2):
            for J in [(0,), (d.rank,), full]:
                for _ in range(15):
                    mu = tuple(rng.randint(-3, 4) for _ in range(d.rank))
                    try:
                        phi = LevelRepElt(d, full, k, {mu: 1})
                    except ValueError:
                        continue
                    assert holomorphic_induction(phi, J) == holomorphic_induction_bruteforce(phi, J)


def test_induction_composition():
    rng = random.Random(29)
    d = build_lie_data("A2")
    nodes = (0, 1, 2)
    chains = [
        (I, J, K)
        for size_i in (2, 3)
        for I in itertools.combinations(nodes, size_i)
        for size_j in range(2, size_i + 1)
        for J in itertools.combinations(I, size_j)
        for K in itertools.combinations(J, 1)
    ]
    k = 1
    for I, J, K in chains:
        for _ in range(6):
            mu = tuple(rng.randint(-2, 3) for _ in range(2))
            try:
                phi = LevelRepElt(d, I, k, {mu: 1})
            except ValueError:
                continue
            via = holomorphic_induction(holomorphic_induction(phi, J), K)
            direct = holomorphic_induction(phi, K)
            assert via == direct


def test_induction_agrees_with_reskew():
    # the rho-shift dictionary: chi_mu over I <-> cone representative mu+rho
    rng = random.Random(37)
    d = build_lie_data("A2")
    k = 2
    m = k + d.dual_coxeter
    I, J = (0, 1), (0,)
    for _ in range(20):
        mu = tuple(rng.randint(-2, 4) for _ in range(2))
        try:
            phi = LevelRepElt(d, I, k, {mu: 1})
        except ValueError:
            continue
        shifted = tuple(x + 1 for x in mu)
        try:
            anti = AntiInvariant(d, m, I, {shifted: 1})
        except ValueError:
            continue  # mu+rho not strictly I-regular <=> mu not in the I cone
        ind = holomorphic_induction(phi, J)
        res = reskew_to(anti, J)
        assert {tuple(x - 1 for x in w): c for w, c in res.terms.items()} == ind.terms


def test_rho_shift_lemma():
    # mu in the level-k cone of I <=> mu+rho strictly regular at level k+h_vee
    for name in ["A1", "A2", "C2"]:
        d = build_lie_data(name)
        for k in range(0, 3):
            m = k + d.dual_coxeter
            for I in [(0,), (d.rank,), tuple(range(d.rank + 1))]:
                walls = [i for i in range(d.rank + 1) if i not in I]
                for mu in itertools.product(range(-3, 4), repeat=d.rank):
                    in_cone = all(weight_wall_value(d, mu, i, k) >= 0 for i in walls)
                    shifted = tuple(x + 1 for x in mu)
                    strict = all(weight_wall_value(d, shifted, i, m) >= 1 for i in walls)
                    assert in_cone == strict


def test_project_to_fusion():
    a1 = build_lie_data("A1")
    # node 0: the identification with the plain quotient map
    for mu in [(0,), (1,)]:
        phi = LevelRepElt(a1, (0,), 1, {mu: 1})
        assert project_to_fusion(phi).terms == quotient_map(CharacterElt.chi(a1, mu), 1).terms
    assert not project_to_fusion(LevelRepElt(a1, (1,), 1))
    with pytest.raises(ValueError):
        project_to_fusion(LevelRepElt(a1, (0, 1), 1))


def test_project_to_fusion_other_vertex():
    # values frozen by expanding the full affine orbit of mu+rho at the
    # shifted level and reading off the strictly dominant representative
    a1 = build_lie_data("A1")
    frozen = {(-3,): {(1,): -1}, (-2,): {(0,): -1}, (-1,): {}, (0,): {(0,): 1}}
    for mu, expect in frozen.items():
        phi = LevelRepElt(a1, (1,), 1, {mu: 1})
        assert project_to_fusion(phi).terms == expect
    with pytest.raises(ValueError):
        LevelRepElt(a1, (1,), 1, {(2,): 1})  # outside the level-1 cone of {1}


def test_fusion_ring_axioms_small():
    for name, k in [("A2", 1), ("C2", 1)]:
        d = build_lie_data(name)
        basis = [FusionElt(d, k, {w: 1}) for w in level_weights(d, k)]
        for a, b in itertools.product(basis, repeat=2):
            assert fusion_product(a, b) == fusion_product(b, a)
        for a, b, c in itertools.product(basis, repeat=3):
            assert fusion_product(fusion_product(a, b), c) == fusion_product(
                a, fusion_product(b, c)
            )


def test_fusion_character_value_diagonalizes_products():
    # the numeric value of a fusion product at a special point factors
    a1 = build_lie_data("A1")
    k = 2
    a = FusionElt(a1, k, {(1,): 1})
    b = FusionElt(a1, k, {(2,): 1})
    prod = fusion_product(a, b)
    values = zip(*(_special_values(a1, phi.terms, k) for phi in (prod, a, b)))
    for nu, (lhs, va, vb) in zip(level_weights(a1, k), values, strict=True):
        assert abs(lhs - va * vb) < 1e-9, nu


# -- weights are checked once where they enter -----------------------------------

A2_ELEMENTS = {
    "CharacterElt": lambda d, w: CharacterElt(d, {w: 1}),
    "FusionElt": lambda d, w: FusionElt(d, 2, {w: 1}),
    "LevelRepElt": lambda d, w: LevelRepElt(d, (0, 1), 1, {w: 1}),
    "GroupRingElt": lambda d, w: GroupRingElt(d, 4, {w: 1}),
    "AntiInvariant": lambda d, w: AntiInvariant(d, 4, (0, 1), {w: 1}),
}


@pytest.mark.parametrize("cls", sorted(A2_ELEMENTS))
def test_weight_keyed_elements_refuse_wrong_rank_and_non_int_keys(cls):
    """Each weight-keyed element class refuses a short and a long key, and
    a key with a float, Fraction or bool coordinate, integral or not; the
    zip of a dot product once let a long key through and truncated a short
    one."""
    d, make = build_lie_data("A2"), A2_ELEMENTS[cls]
    assert make(d, (1, 1)).terms == {(1, 1): 1}
    for bad in [(0,), (1,), (0, 0, 5), (1, 0, 0), (0.5, 0.5), (1.0, 1), (1, F(1)), (F(1, 2), 1),
                (True, 1), (1, False)]:
        with pytest.raises(ValueError):
            make(d, bad)


def test_quotient_map_never_sees_a_wrong_rank_character():
    a2 = build_lie_data("A2")
    for bad in [(1, 0, 0), (1,)]:
        with pytest.raises(ValueError, match="coordinates, not 2"):
            quotient_map(CharacterElt(a2, {bad: 1}), 1)


def test_non_integral_weights_are_refused_not_truncated():
    a2 = build_lie_data("A2")
    cases = [
        lambda: weyl_dimension(a2, (1.5, 0)),
        lambda: CharacterElt.chi(a2, (1.9, 0)),
        lambda: special_point(a2, (0.7, 0), 1),
        lambda: FusionElt(a2, 1, {(0.5, 0.5): 1}),
        lambda: dominant_weight_multiplicities(a2, (F(1, 2), 0)),
        lambda: weight_multiplicities(a2, (0.5, 0)),
        lambda: tensor_decompose(a2, (1, 0), (0, 1.5)),
        lambda: special_point(a2, (0.5, 0), 1),
    ]
    for case in cases:
        with pytest.raises(ValueError, match="not an int"):
            case()
    assert CharacterElt.chi(a2, [1, 0]) == CharacterElt.chi(a2, iter((1, 0)))
    assert special_point(a2, [1, 0], 1) == special_point(a2, (1, 0), 1)


def test_weight_check_messages():
    a2 = build_lie_data("A2")
    with pytest.raises(ValueError, match=r"^\(0, -1\) is not dominant$"):
        tensor_decompose(a2, (1, 0), (0, -1))
    with pytest.raises(ValueError, match=r"^\(2, 0\) is not a level-1 weight$"):
        special_point(a2, (2, 0), 1)


# -- the fusion ring axioms at every small type and level -------------------------

def ordered_kac_walton(data, k, a, b):
    """N_ab^c with the weights of V_b added to a: the factors are never
    swapped and no product cache is read, so commutativity is a check."""
    terms = {tuple(x + y for x, y in zip(a, tau)): m
             for tau, m in weight_multiplicities(data, b).items()}
    return dominantize_terms(data, terms, k + data.dual_coxeter, range(data.rank + 1), 1)


def test_fusion_ring_axioms_at_every_small_type_and_level():
    """Every type of rank <= 3 at every level <= 3, on all ordered pairs of
    basis weights: commutative constants N_ab^c >= 0, the unit, a unique
    dual a* with N_{a a*}^0 = 1, an involution, and associativity on seeded
    random triples."""
    rng = random.Random(20261018)
    for t, k in itertools.product(["A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3"], range(4)):
        d = build_lie_data(t)
        basis = level_weights(d, k)
        zero = (0,) * d.rank
        elt = {a: FusionElt(d, k, {a: 1}) for a in basis}
        dual = {}
        for a in basis:
            assert fusion_product(fusion_unit(d, k), elt[a]) == elt[a]
            for b in basis:
                N = ordered_kac_walton(d, k, a, b)
                assert N == ordered_kac_walton(d, k, b, a) == fusion_product(elt[a], elt[b]).terms
                assert all(c in elt and n > 0 for c, n in N.items()), (t, k, a, b)
                assert N.get(zero, 0) in (0, 1)
                if N.get(zero):
                    assert a not in dual, (t, k, a)
                    dual[a] = b
        assert set(dual) == set(basis)
        assert all(dual[dual[a]] == a for a in basis)
        for _ in range(20):
            a, b, c = (elt[rng.choice(basis)] for _ in range(3))
            assert fusion_product(fusion_product(a, b), c) == fusion_product(a, fusion_product(b, c))
