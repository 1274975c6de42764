"""The level-k fusion ring: level weights, the quotient map from the
representation ring, fusion products, holomorphic induction, and an
independent numeric oracle through character values at the special points

    t_nu = B_sharp(nu + rho) / (k + h_vee),   nu a level-k weight.

Products are computed exactly by the Kac-Walton formula: each weight of
the smaller factor is added to the other factor and reflected, rho-shifted,
into the level alcove at level k + h_vee in one reduction.  The Klimyk rule
followed by the quotient map computes the same constants in two passes; it
serves CharacterElt products and the ring-homomorphism checks.  The numeric
evaluation is retained purely as a second, independent check and never
decides a value.  Kac-Walton, the Klimyk rule, the quotient map, induction
and the projection to the fusion ring are one operation,
affine.dominantize_terms, at different walls and levels; the element classes
are alcove.sparse.SparseElt subclasses.  Every cached result lives in the
memo of its LieData; the quotient map and the projection share its quotient
table of each level, weight -> image.  Results are built trusted, never over
a cached dict itself.

fusion_table folds the table by the centre Z(G) (the fold is explained
there); fusion_product itself stays per pair.
fusion_table_json writes the table as json.dumps(doc, indent=2) would, with
a dict per row, but renders each basis weight once and fills one row
template per row.

The dominant weights of V_mu come from a downward search from mu that
subtracts positive roots; Freudenthal multiplicities and Weyl dimensions
are computed in integer arithmetic (the Gram matrix of LieData scaled to
integers, exact divisibility checked).  The Weyl orbit of each dominant
weight is affine.weyl_orbit at the walls 1..l and level 0, a downward walk
that reads the wall values off the coordinates.

The numeric oracle works on integer numerators too.  A special point is
X / D with X = N_w (nu + rho) and D = D_w (k + h_vee), where
gram_weight_scaled = (N_w, D_w); the phase of a weight tau there is
<tau, X> mod D, exact, and only that residue is divided in floating point.
_special_values is the one evaluation at all the special points, for
ideal_membership and acceptance criterion 2.
"""

from __future__ import annotations

import cmath
import json
import sys
from fractions import Fraction
from itertools import product as iter_product
from operator import mul
from typing import Iterator, Mapping, Sequence

from .affine import _weight_walls, dominantize_terms, dominantize_walls, weyl_orbit
from .lie import (
    CartanPoint,
    LieData,
    Weight,
    _check_face_index,
    _json_list,
    _scaled,
    _sharp_scaled,
    _walls_outside,
    check,
)
from .sparse import SparseElt, combine

VANISH_TOL = 1e-8


def is_dominant(data: LieData, w: Sequence[int]) -> bool:
    """Whether no wall value at nodes 1..l is negative; ValueError unless a weight."""
    return min(_weight_walls(data, w, 0)[1:]) >= 0


def in_level(data: LieData, w: Sequence[int], k: int) -> bool:
    """Whether no wall value at level k is negative; ValueError unless a weight."""
    return min(_weight_walls(data, w, k)) >= 0


def _check_dominant(data: LieData, mu: Weight) -> None:
    """Raise ValueError unless mu is a dominant weight."""
    if not is_dominant(data, mu):
        raise ValueError(f"{mu} is not dominant")


def _check_level(k: int) -> None:
    if k < 0:
        raise ValueError("level must be >= 0")


def level_weights(data: LieData, k: int) -> list[Weight]:
    """The level-k weights, in lexicographic order.  ValueError for a level
    whose search box has a side longer than any sequence (sys.maxsize)."""
    _check_level(k)
    if k // min(data.comarks) >= sys.maxsize:
        raise ValueError(f"level {k} is too large to list its weights")
    boxes = [range(k // c + 1) for c in data.comarks]
    return [w for w in iter_product(*boxes) if _weight_walls(data, w, k)[0] >= 0]


class CharacterElt(SparseElt):
    """A virtual character: finitely supported integer map on dominant weights."""

    __slots__ = _fields = ("data",)

    def __init__(self, data: LieData, terms: Mapping[Weight, int] | None = None):
        self.data = data
        super().__init__(terms)

    def _validate(self, w: Weight) -> None:
        _check_dominant(self.data, w)

    @classmethod
    def chi(cls, data: LieData, w: Sequence[int], coeff: int = 1) -> "CharacterElt":
        return cls(data, {tuple(w): coeff})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        self._check(other)
        return self._new(combine(
            (cl * cm, _tensor_decompose(self.data, l, m))
            for l, cl in self.terms.items() for m, cm in other.terms.items()
        ))


class FusionElt(SparseElt):
    """An element of the level-k fusion ring, over the level-k weight basis."""

    __slots__ = _fields = ("data", "k")

    def __init__(self, data: LieData, k: int, terms: Mapping[Weight, int] | None = None):
        _check_level(k)
        self.data = data
        self.k = k
        super().__init__(terms)

    def _validate(self, w: Weight) -> None:
        if not in_level(self.data, w, self.k):
            raise ValueError(f"{w} is not a level-{self.k} weight")


class LevelRepElt(SparseElt):
    """A virtual level-k representation of the central extension attached to
    a face I: integer map on the weights nu with
    <nu, alpha_i_vee> + k delta_{i,0} >= 0 for i outside I."""

    __slots__ = _fields = ("data", "I", "k")

    def __init__(self, data: LieData, I: Sequence[int], k: int, terms: Mapping[Weight, int] | None = None):
        _check_level(k)
        self.data = data
        self.I = _check_face_index(data, I)
        self.k = k
        super().__init__(terms)

    def _validate(self, w: Weight) -> None:
        for i, v in enumerate(_weight_walls(self.data, w, self.k)):
            if v < 0 and i not in self.I:
                raise ValueError(f"{w} is not in the level-{self.k} cone of {self.I}")


# ---------------------------------------------------------------------------
# weight multiplicities (Freudenthal) and dimensions


def _dominant_weights_below(data: LieData, mu: Weight) -> list[Weight]:
    """Dominant weights lam with mu - lam a nonnegative root-lattice vector,
    ordered by the height of mu - lam, then by lam.

    A downward search from mu: subtract each positive root and keep the
    dominant results.  It reaches every dominant lam <= mu, because any two
    dominant weights lam < mu are joined by a chain of dominant weights
    whose steps are positive roots (Stembridge, "The partial order of
    dominant weights", Adv. Math. 136, 1998)."""
    height = {mu: 0}
    frontier = [mu]
    while frontier:
        below = []
        for lam in frontier:
            for root in data.positive_roots:
                nxt = tuple(x - r for x, r in zip(lam, root.weight))
                if nxt not in height and min(nxt) >= 0:
                    height[nxt] = height[lam] + sum(root.coeffs)
                    below.append(nxt)
        frontier = below
    return sorted(height, key=lambda lam: (height[lam], lam))


def weyl_dimension(data: LieData, mu: Sequence[int]) -> int:
    """Dimension of the irreducible representation by the Weyl formula;
    ValueError unless mu is a dominant weight, checked before the cache."""
    mu = tuple(mu)
    _check_dominant(data, mu)
    return _weyl_dimension(data, mu)


def _weyl_dimension(data: LieData, mu: Weight) -> int:
    """weyl_dimension of a dominant weight the library built, unchecked and
    cached as ("dim", mu)."""
    dim = data._memo.get(("dim", mu))
    if dim is None:
        num = den = 1
        for root in data.positive_roots:
            num *= sum((a + 1) * b for a, b in zip(mu, root.coroot))
            den *= sum(root.coroot)
        dim, rem = divmod(num, den)
        check(rem == 0 and dim > 0, f"Weyl dimension of {mu} is not a positive integer")
        data._memo["dim", mu] = dim
    return dim


def dominant_weight_multiplicities(data: LieData, mu: Sequence[int]) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V_mu, by the Freudenthal
    recursion, cross-checked against the Weyl dimension formula.

    Inner products are taken with the integer-scaled Gram matrix; the scale
    cancels in the recursion and in the norm cut-off.  Not cached: its one
    library caller, _weight_multiplicities, caches its own result."""
    mu = tuple(mu)
    _check_dominant(data, mu)

    # the Gram matrix on the fundamental weights, scaled to integers
    gram, _ = data.gram_weight_scaled

    def ip(a: Sequence[int], b: Sequence[int]) -> int:
        return sum(x * sum(g * y for g, y in zip(row, b)) for x, row in zip(a, gram))

    # each positive root with its scaled squared length
    roots = [(root.weight, ip(root.weight, root.weight)) for root in data.positive_roots]
    mu_rho = tuple(x + 1 for x in mu)
    top_norm = ip(mu_rho, mu_rho)
    mu_norm = ip(mu, mu)
    walls = range(1, data.rank + 1)
    mults: dict[Weight, int] = {}
    for lam in _dominant_weights_below(data, mu):
        if lam == mu:
            mults[lam] = 1
            continue
        lam_norm = ip(lam, lam)
        total = 0
        for beta, beta_norm in roots:
            lam_beta = ip(lam, beta)
            j = 1
            # tau = lam + j*beta; ip(tau, tau) and ip(tau, beta) by expansion
            while lam_norm + j * (2 * lam_beta + j * beta_norm) <= mu_norm:
                tau = tuple(x + j * r for x, r in zip(lam, beta))
                m_tau = mults.get(dominantize_walls(data, tau, 0, walls).weight, 0)
                if m_tau:
                    total += m_tau * (lam_beta + j * beta_norm)
                j += 1
        lam_rho = tuple(x + 1 for x in lam)
        denom = top_norm - ip(lam_rho, lam_rho)
        check(denom > 0, f"Freudenthal denominator of {lam} in V_{mu} is not positive")
        val, rem = divmod(2 * total, denom)
        check(rem == 0 and val >= 0,
              f"Freudenthal multiplicity of {lam} in V_{mu} is not a natural number: {2 * total} / {denom}")
        if val:
            mults[lam] = val
    return mults


def weight_multiplicities(data: LieData, mu: Sequence[int]) -> dict[Weight, int]:
    """Multiplicities of all weights of V_mu, cross-checked against the Weyl
    dimension formula: the Freudenthal multiplicities spread over the Weyl
    orbits of the dominant weights must add up to dim V_mu.  ValueError
    unless mu is a dominant weight, checked before the cache."""
    mu = tuple(mu)
    _check_dominant(data, mu)
    return dict(_weight_multiplicities(data, mu))  # a copy


def _weight_multiplicities(data: LieData, mu: Weight) -> dict[Weight, int]:
    """weight_multiplicities of a dominant weight the library built,
    unchecked and cached as ("weights", mu)."""
    cached = data._memo.get(("weights", mu))
    if cached is not None:
        return cached
    walls = range(1, data.rank + 1)
    out: dict[Weight, int] = {}
    for lam, m in dominant_weight_multiplicities(data, mu).items():
        for w in sorted(weyl_orbit(data, lam, 0, walls)):
            out[w] = m
    check(sum(out.values()) == _weyl_dimension(data, mu), f"Freudenthal/Weyl dimension mismatch for {mu}")
    data._memo["weights", mu] = out
    return out


# ---------------------------------------------------------------------------
# tensor products and the quotient map


def _factor_weights(data: LieData, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """lam + tau with the multiplicity of tau, over the weights tau of V_mu,
    after swapping the factors so that V_mu has the smaller dimension: the
    terms that the Klimyk rule and the Kac-Walton formula reflect."""
    if _weyl_dimension(data, mu) > _weyl_dimension(data, lam):
        lam, mu = mu, lam
    return {
        tuple(a + b for a, b in zip(lam, tau)): m
        for tau, m in _weight_multiplicities(data, mu).items()
    }


def tensor_decompose(data: LieData, lam: Sequence[int], mu: Sequence[int]) -> CharacterElt:
    """Decomposition of V_lam (x) V_mu by the Klimyk rule, cached per
    unordered pair; ValueError unless both are dominant weights, checked
    before the cache."""
    lam, mu = tuple(lam), tuple(mu)
    _check_dominant(data, lam)
    _check_dominant(data, mu)
    return CharacterElt._trusted(dict(_tensor_decompose(data, lam, mu)), data)  # a copy


def _tensor_decompose(data: LieData, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """The terms of tensor_decompose for dominant weights the library built,
    unchecked; the cached dict itself, which callers must not change."""
    key = ("tensor", frozenset((lam, mu)))
    out = data._memo.get(key)
    if out is None:
        # V_lam (x) V_mu = sum over the weights tau of V_mu of chi(lam + tau),
        # each reduced by the classical Weyl group in the rho-shifted action
        out = dominantize_terms(data, _factor_weights(data, lam, mu), 0, range(1, data.rank + 1), 1)
        check(all(c > 0 for c in out.values()), "Klimyk produced a negative multiplicity")
        dim_check = sum(c * _weyl_dimension(data, w) for w, c in out.items())
        check(dim_check == _weyl_dimension(data, lam) * _weyl_dimension(data, mu),
              f"Klimyk dimension mismatch for {lam} (x) {mu}")
        data._memo[key] = out
    return out


def _to_level(data: LieData, terms: Mapping[Weight, int], k: int) -> FusionElt:
    """The terms reflected, rho-shifted, into the alcove at level k + h_vee
    with their signs, one weight at a time through the quotient table."""
    table = data._memo.setdefault(("quotient", k), {})
    for w in terms.keys() - table.keys():
        table[w] = dominantize_terms(data, {w: 1}, k + data.dual_coxeter, range(data.rank + 1), 1)
    return FusionElt._trusted(combine((c, table[w]) for w, c in terms.items()), data, k)


def quotient_map(chi: CharacterElt, k: int) -> FusionElt:
    """The quotient from the representation ring onto the level-k fusion
    ring: reflect the rho-shifted weight into the shifted-level alcove."""
    _check_level(k)
    return _to_level(chi.data, chi.terms, k)


def _kac_walton(data: LieData, k: int, l: Weight, m: Weight) -> dict[Weight, int]:
    """The terms of the level-k fusion product of two level-k weights,
    unchecked and uncached (see fusion_product)."""
    level, walls = k + data.dual_coxeter, range(data.rank + 1)
    terms = dominantize_terms(data, _factor_weights(data, l, m), level, walls, 1)
    check(all(c > 0 for c in terms.values()), "negative fusion coefficient")
    return terms


def fusion_product(a: FusionElt, b: FusionElt) -> FusionElt:
    """Product in the fusion ring, by the Kac-Walton formula.

    N_lm^c is the signed count of the weights tau of V_m, with multiplicity,
    for which l + tau + rho reduces to c + rho under the affine Weyl group at
    level k + h_vee.  That is the Klimyk rule followed by quotient_map in one
    reduction: the finite Weyl group lies in the affine one and the sign is
    multiplicative.  The terms are cached per pair of weights."""
    a._check(b)
    data, k, memo = a.data, a.k, a.data._memo
    parts = []
    for l, cl in a.terms.items():
        for m, cm in b.terms.items():
            key = ("fusion", k, *sorted((l, m)))
            terms = memo.get(key)
            if terms is None:
                terms = memo[key] = _kac_walton(data, k, l, m)
            parts.append((cl * cm, terms))
    return a._new(combine(parts))


def fusion_unit(data: LieData, k: int) -> FusionElt:
    return FusionElt(data, k, {(0,) * data.rank: 1})


# ---------------------------------------------------------------------------
# special points and the numeric oracle


def special_point(data: LieData, nu: Sequence[int], k: int) -> CartanPoint:
    """t_nu = B_sharp(nu + rho)/(k + h_vee), interior to the alcove."""
    X, D = _special_scaled(data, nu, k)
    return tuple(Fraction(x, D) for x in X)


def _special_scaled(data: LieData, nu: Sequence[int], k: int) -> tuple[list[int], int]:
    """t_nu = B_sharp(nu + rho) / (k + h_vee) as integer numerators X over
    one denominator D."""
    _check_level(k)
    nu = tuple(nu)
    if not in_level(data, nu, k):
        raise ValueError(f"{nu} is not a level-{k} weight")
    return _sharp_scaled(data, [a + 1 for a in nu], k + data.dual_coxeter)


def _irreducible_value_scaled(data: LieData, mu: Weight, X: Sequence[int], D: int) -> complex:
    """chi_mu(exp(X / D)) for a dominant weight mu, unchecked: the
    multiplicities of the weights tau of V_mu are summed by the exact phase
    <tau, X> mod D, and each phase is turned into a float by one division."""
    by_phase: dict[int, int] = {}
    for tau, m in _weight_multiplicities(data, mu).items():
        p = sum(map(mul, tau, X)) % D
        by_phase[p] = by_phase.get(p, 0) + m
    return sum(m * cmath.exp(2j * cmath.pi * (p / D)) for p, m in by_phase.items())


def _value_scaled(data: LieData, terms: Mapping[Weight, int], X: Sequence[int], D: int) -> complex:
    return sum(c * _irreducible_value_scaled(data, mu, X, D) for mu, c in terms.items())


def character_value(chi: CharacterElt, xi: Sequence) -> complex:
    """chi(exp xi) as a sum over the weights of each V_mu of chi."""
    return _value_scaled(chi.data, chi.terms, *_scaled(chi.data, xi))


def _special_values(data: LieData, terms: Mapping[Weight, int], k: int) -> Iterator[complex]:
    """sum c chi_mu(t_nu) over the terms c mu, at the special point t_nu of
    each level-k weight nu in level_weights order; lazy, so that a caller
    can stop at the first value it needs."""
    for nu in level_weights(data, k):
        yield _value_scaled(data, terms, *_special_scaled(data, nu, k))


def ideal_membership(chi: CharacterElt, k: int) -> bool:
    """Whether chi lies in the level-k fusion ideal.

    Decided exactly by the quotient map; the numeric vanishing test at all
    special points must agree, and any disagreement raises CheckFailed.
    """
    exact = not quotient_map(chi, k)
    numeric = all(abs(v) < VANISH_TOL for v in _special_values(chi.data, chi.terms, k))
    check(exact == numeric,
          f"exact and numeric ideal tests disagree for k={k}: exact={exact}, numeric={numeric}")
    return exact


# ---------------------------------------------------------------------------
# holomorphic induction and the maps to the fusion ring


def holomorphic_induction(phi: LevelRepElt, J: Sequence[int]) -> LevelRepElt:
    """Induction from the face group of I to the face group of J, J a subset
    of I: on basis characters, reflect the rho-shifted weight into the
    strict J-cone at the shifted level, with sign; wall-fixed terms vanish."""
    data = phi.data
    J = _check_face_index(data, J)
    if not set(J) <= set(phi.I):
        raise ValueError(f"{J} is not a subset of {phi.I}")
    out = dominantize_terms(data, phi.terms, phi.k + data.dual_coxeter, _walls_outside(data, J), 1)
    return LevelRepElt._trusted(out, data, J, phi.k)


def project_to_fusion(phi: LevelRepElt) -> FusionElt:
    """The map into the fusion ring for a singleton face (full affine
    skew-symmetrization on basis characters)."""
    if len(phi.I) != 1:
        raise ValueError("projection to the fusion ring needs a singleton face")
    return _to_level(phi.data, phi.terms, phi.k)


# ---------------------------------------------------------------------------
# fusion tables and serialization


def _simple_current(
    data: LieData, basis: list[Weight], index: Mapping[Weight, int], k: int, j: int
) -> tuple[int, ...]:
    """The simple current sigma_j of node j (see fusion_table) as the images
    of the level-k basis, by index (index maps each basis weight to its
    position); sigma_0 is the identity."""
    m, walls = k + data.dual_coxeter, range(data.rank + 1)
    images = []
    for lam in basis:
        nu = [x + 1 for x in lam]
        if j:
            nu[j - 1] += m
        rep = dominantize_walls(data, nu, m, walls).weight
        images.append(index[tuple([x - 1 for x in rep])])
    return tuple(images)


def _centre(
    data: LieData, basis: list[Weight], index: Mapping[Weight, int], k: int
) -> list[tuple[int, ...]]:
    """The centre Z(G) acting on the level-k basis: the distinct simple
    currents of the nodes with mark 1, node 0 (the identity) first.  There
    is one element of Z(G) per special node of the alcove, so these are
    closed under composition; that is checked.  At k = 0 all are the
    identity."""
    special = [0] + [j for j, mark in enumerate(data.marks, 1) if mark == 1]
    centre = list(dict.fromkeys(_simple_current(data, basis, index, k, j) for j in special))
    members = set(centre)
    check(all(tuple([s[i] for i in t]) in members for s in centre for t in centre),
          "the simple currents are not a group")
    return centre


def fusion_table(
    data: LieData, k: int, basis: list[Weight] | None = None
) -> list[tuple[Weight, Weight, Weight, int]]:
    """All nonzero structure constants (a, b, c, N) at level k, with a <= b,
    by row pair and then by c.  A caller that holds level_weights(data, k)
    passes it as basis, so that the basis is enumerated once per table.

    The table is folded by the centre Z(G).  It acts on level-k weights by
    the simple currents of the nodes j with mark 1,

        sigma_j(lam) = rep - rho,  rep the alcove representative at level
        k + h_vee of lam + rho + (k + h_vee) omega_j,

    a weight walk with no fusion product, and N_{sa, tb}^{stc} = N_ab^c for
    s, t in Z(G) (Schellekens-Yankielowicz 1990; Fuchs 1991).  So the
    uncached Kac-Walton product runs once per orbit of pairs {a, b} under
    Z x Z, on the pair whose smaller factor has the least Weyl dimension,
    and its terms are carried to the rest of the orbit; pairs an orbit
    reaches twice must get the same terms; a trivial centre leaves one pair."""
    if basis is None:
        basis = level_weights(data, k)
    n = len(basis)
    index = {w: i for i, w in enumerate(basis)}
    centre = _centre(data, basis, index, k)
    dims = [_weyl_dimension(data, w) for w in basis]
    products: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(n):
        for b in range(a, n):
            if (a, b) in products:
                continue
            orbit = {tuple(sorted((s[a], t[b]))) for s in centre for t in centre}
            r, q = min(orbit, key=lambda p: (min(dims[p[0]], dims[p[1]]), p))
            rep_terms = [(index[c], N) for c, N in _kac_walton(data, k, basis[r], basis[q]).items()]
            for s in centre:
                for t in centre:
                    terms = {s[t[c]]: N for c, N in rep_terms}
                    key = tuple(sorted((s[r], t[q])))
                    check(products.setdefault(key, terms) == terms, "centre symmetry broken")
    return [
        (basis[a], basis[b], basis[c], N)
        for a in range(n)
        for b in range(a, n)
        for c, N in sorted(products[a, b].items())
    ]


def fusion_table_json(data: LieData, k: int) -> str:
    """The fusion table as the text of json.dumps(doc, indent=2), where doc
    holds type, k, the basis and one {"a", "b", "c", "N"} dict per
    fusion_table row under "constants".  Each basis weight is rendered once,
    at the depth of a row cell (lie._json_list), and each row fills one row
    template, so no row is a dict."""
    basis = level_weights(data, k)
    cell = {w: _json_list(map(str, w), 3) for w in basis}
    row = '{\n      "a": %s,\n      "b": %s,\n      "c": %s,\n      "N": %d\n    }'
    rows = (row % (cell[a], cell[b], cell[c], n) for a, b, c, n in fusion_table(data, k, basis))
    head = json.dumps({"type": str(data.lie_type), "k": k, "basis": [list(w) for w in basis]}, indent=2)
    # the header ends in "\n}"; the constants go before it
    return head[:-2] + ',\n  "constants": ' + _json_list(rows, 1) + "\n}"
