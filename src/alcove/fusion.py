"""The level-k fusion ring: level weights, the quotient map from the
representation ring, fusion products and tables, holomorphic induction, and
an independent numeric oracle through character values at the special points

    t_nu = B_sharp(nu + rho) / (k + h_vee),   nu a level-k weight.

The weight system of V_mu is cached once, as the wall vector
(-<tau, theta_vee>, *tau) of each weight tau with its multiplicity, the
form in which affine._reduce walks a weight; the orbit walk (affine._walk)
of each dominant weight yields these vectors.  One kernel, _product_terms,
adds these vectors of the smaller factor to the wall vector of the other
factor plus rho and reduces each sum: the Kac-Walton formula at all walls
and level k + h_vee, the Klimyk rule at the walls 1..l.  The quotient map,
induction and the simple currents are dominantize_terms.  Every cached
result lives in the memo of its LieData; results are built trusted, never
over a cached dict.

fusion_table folds the table by the centre Z(G), by charge conjugation,
N_{a*b*}^{c*} = N_ab^c, and by the S3 symmetry of N_{abc} = N_ab^{c*}.  The
basis is split into two parts, each a union of classes under the centre and
conjugation; Kac-Walton runs once per orbit of pairs within a part, and
every pair across the parts is filled from those rows by N_ab^c =
N_{a c*}^{b*} = N_{b c*}^{a*}.  An entry reached twice must agree ("centre
symmetry broken", "S3 symmetry broken").

Freudenthal, Weyl dimensions and the phases of the numeric oracle are exact
integer arithmetic; the oracle is an independent check, never deciding a
value.
"""

from __future__ import annotations

import cmath
import json
import sys
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .affine import _reduce, _walk, _wall_list, _wall_vector, _weight_walls, dominantize_terms, dominantize_walls
from .lie import (
    LieData,
    Weight,
    _check_face_index,
    _json_list,
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
    """The level-k weights, in lexicographic order, built directly: each
    prefix (w, left) of weights with level left still to spend takes every
    next coordinate x with comark * x <= left, so no point is built and then
    dropped and the work is linear in the output.  ValueError for a level
    with k // a >= sys.maxsize at the least comark a: it has more weights
    than sys.maxsize, too many to list."""
    _check_level(k)
    if k // min(data.comarks) >= sys.maxsize:
        raise ValueError(f"level {k} is too large to list its weights")
    prefixes = [((), k)]
    for a in data.comarks:
        prefixes = [(w + (x,), left - a * x) for w, left in prefixes for x in range(left // a + 1)]
    return [w for w, _ in prefixes]


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
    recursion in the integer-scaled Gram matrix G (the scale cancels).  Each
    positive root beta enters as its wall vector and its form G beta, so tau
    = lam + j beta is a vector sum, reduced to its dominant weight by
    affine._reduce over walls checked once per call.  Not cached: its one
    library caller, _weight_multiplicities, caches its result."""
    mu = tuple(mu)
    _check_dominant(data, mu)
    (gram, _), rows = data.gram_weight_scaled, data.weight_table
    walls = _wall_list(data, range(1, data.rank + 1), 0)

    def form(a: Sequence[int]) -> list[int]:
        return [sum(map(mul, row, a)) for row in gram]

    def norm(a: Sequence[int]) -> int:
        return sum(map(mul, a, form(a)))

    roots = [(_wall_vector(data, r.weight), form(r.weight), norm(r.weight)) for r in data.positive_roots]
    top_norm, mu_norm = norm([x + 1 for x in mu]), norm(mu)
    mults: dict[Weight, int] = {}
    for lam in _dominant_weights_below(data, mu):
        if lam == mu:
            mults[lam] = 1
            continue
        lam_norm, lam_vec, total = norm(lam), _wall_vector(data, lam), 0
        for beta, g, beta_norm in roots:
            lam_beta = sum(map(mul, lam, g))
            tau, j = lam_vec, 1
            # <tau, tau> and <tau, beta> by expansion
            while lam_norm + j * (2 * lam_beta + j * beta_norm) <= mu_norm:
                tau = [*map(add, tau, beta)]
                m_tau = mults.get(tuple(_reduce(tau, rows, walls)[0][1:]), 0)
                if m_tau:
                    total += m_tau * (lam_beta + j * beta_norm)
                j += 1
        denom = top_norm - norm([x + 1 for x in lam])
        check(denom > 0, f"Freudenthal denominator of {lam} in V_{mu} is not positive")
        val, rem = divmod(2 * total, denom)
        check(rem == 0 and val >= 0,
              f"Freudenthal multiplicity of {lam} in V_{mu} is not a natural number: {2 * total} / {denom}")
        if val:
            mults[lam] = val
    return mults


def weight_multiplicities(data: LieData, mu: Sequence[int]) -> dict[Weight, int]:
    """Multiplicities of all weights of V_mu, whose sum is checked against
    the Weyl dimension; ValueError unless mu is a dominant weight, checked
    before the cache."""
    mu = tuple(mu)
    _check_dominant(data, mu)
    return {vec[1:]: m for vec, m in _weight_multiplicities(data, mu).items()}


def _weight_multiplicities(data: LieData, mu: Weight) -> dict[tuple[int, ...], int]:
    """The weight system of V_mu for a dominant weight the library built,
    unchecked and cached as ("weights", mu): the wall vector of each weight
    tau with its multiplicity, by dominant weight and then in walk order,
    the vectors of the orbit walk (affine._walk) from each dominant weight."""
    cached = data._memo.get(("weights", mu))
    if cached is not None:
        return cached
    rows, walls = data.weight_table, range(1, data.rank + 1)
    out: dict[tuple[int, ...], int] = {}
    for lam, m in dominant_weight_multiplicities(data, mu).items():
        for layer in _walk(_wall_vector(data, lam), rows, walls):
            out.update(dict.fromkeys(layer, m))
    check(sum(out.values()) == _weyl_dimension(data, mu), f"Freudenthal/Weyl dimension mismatch for {mu}")
    data._memo["weights", mu] = out
    return out


# ---------------------------------------------------------------------------
# tensor products and the quotient map


def _product_terms(data: LieData, lam: Weight, mu: Weight, level: int, walls: range) -> dict[Weight, int]:
    """The Klimyk rule (walls 1..l, level 0) or Kac-Walton (all walls, level
    k + h_vee): sign * m at rep - rho over the weights tau of V_mu with
    multiplicity m, (rep, sign) the reduction of lam + tau + rho into the
    cone of the walls; terms on a wall drop out.  V_mu is the smaller factor
    after a swap.  A term starts as the wall vector of lam + rho at the level
    plus that of tau."""
    if _weyl_dimension(data, mu) > _weyl_dimension(data, lam):
        lam, mu = mu, lam
    walls, rows = _wall_list(data, walls, level), data.weight_table
    base = _wall_vector(data, [x + 1 for x in lam], level)
    out: dict[Weight, int] = {}
    for tau, m in _weight_multiplicities(data, mu).items():
        vec, word, on_wall = _reduce([*map(add, base, tau)], rows, walls)
        if not on_wall:
            key = tuple([x - 1 for x in vec[1:]])
            out[key] = out.get(key, 0) + (-m if len(word) & 1 else m)
    return {w: c for w, c in out.items() if c}


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
        out = _product_terms(data, lam, mu, 0, range(1, data.rank + 1))
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
    terms = _product_terms(data, l, m, k + data.dual_coxeter, range(data.rank + 1))
    check(all(c > 0 for c in terms.values()), "negative fusion coefficient")
    return terms


def fusion_product(a: FusionElt, b: FusionElt) -> FusionElt:
    """Product in the fusion ring, by the Kac-Walton formula.

    N_lm^c is the signed count of the weights tau of V_m, with multiplicity,
    for which l + tau + rho reduces to c + rho under the affine Weyl group at
    level k + h_vee: the Klimyk rule and quotient_map in one reduction, as
    the sign is multiplicative.  The terms are cached per pair of weights."""
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


def _irreducible_value_scaled(data: LieData, mu: Weight, X: Sequence[int], D: int) -> complex:
    """chi_mu(exp(X / D)) for a dominant weight mu, unchecked: the
    multiplicities of the weights tau of V_mu are summed by the exact phase
    <tau, X> mod D, and each phase is turned into a float by one division."""
    by_phase: dict[int, int] = {}
    X = (0, *X)  # against a wall vector (c0, *tau)
    for tau, m in _weight_multiplicities(data, mu).items():
        p = sum(map(mul, tau, X)) % D
        by_phase[p] = by_phase.get(p, 0) + m
    return sum(m * cmath.exp(2j * cmath.pi * (p / D)) for p, m in by_phase.items())


def _value_scaled(data: LieData, terms: Mapping[Weight, int], X: Sequence[int], D: int) -> complex:
    return sum(c * _irreducible_value_scaled(data, mu, X, D) for mu, c in terms.items())


def _special_values(data: LieData, terms: Mapping[Weight, int], k: int) -> Iterator[complex]:
    """sum c chi_mu(t_nu) over the terms c mu, at the special point t_nu =
    B_sharp(nu + rho) / (k + h_vee), as integer numerators over one
    denominator, of each level-k weight nu in level_weights order; lazy, so
    that a caller can stop at the first value it needs."""
    for nu in level_weights(data, k):
        yield _value_scaled(data, terms, *_sharp_scaled(data, [a + 1 for a in nu], k + data.dual_coxeter))


def ideal_membership(chi: CharacterElt, k: int) -> bool:
    """Whether chi lies in the level-k fusion ideal.

    Decided exactly by the quotient map; the numeric vanishing test at all
    special points must agree, or CheckFailed is raised."""
    exact = not quotient_map(chi, k)
    numeric = all(abs(v) < VANISH_TOL for v in _special_values(chi.data, chi.terms, k))
    check(exact == numeric,
          f"exact and numeric ideal tests disagree for k={k}: exact={exact}, numeric={numeric}")
    return exact


# ---------------------------------------------------------------------------
# holomorphic induction


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


# ---------------------------------------------------------------------------
# fusion tables and serialization


def _simple_current(
    data: LieData, basis: list[Weight], index: Mapping[Weight, int], k: int, j: int
) -> tuple[int, ...]:
    """The simple current sigma_j of node j (see fusion_table) as the images
    of the level-k basis, by index; sigma_0 is the identity."""
    m, walls = k + data.dual_coxeter, range(data.rank + 1)
    images = []
    for lam in basis:
        nu = [*lam]
        if j:
            nu[j - 1] += m
        [rep] = dominantize_terms(data, {tuple(nu): 1}, m, walls, 1)
        images.append(index[rep])
    return tuple(images)


def _centre(
    data: LieData, basis: list[Weight], index: Mapping[Weight, int], k: int
) -> list[tuple[int, ...]]:
    """The centre Z(G) acting on the level-k basis: the distinct simple
    currents of the nodes with mark 1, node 0 (the identity) first, one per
    special node, so closed under composition, which is checked.  At k = 0
    all are the identity."""
    special = [0] + [j for j, mark in enumerate(data.marks, 1) if mark == 1]
    centre = list(dict.fromkeys(_simple_current(data, basis, index, k, j) for j in special))
    members = set(centre)
    check(all(tuple([s[i] for i in t]) in members for s in centre for t in centre),
          "the simple currents are not a group")
    return centre


def _conjugation(data: LieData, basis: list[Weight], index: Mapping[Weight, int]) -> tuple[int, ...]:
    """lam* = -w_0 lam, the dominant weight of -lam, on the basis by index."""
    walls = range(1, data.rank + 1)
    return tuple([index[dominantize_walls(data, [-x for x in w], 0, walls).weight] for w in basis])


def _split(dims: list[int], centre: list[tuple[int, ...]], conjugations: Iterable[tuple[int, ...]]) -> list[int]:
    """The part, 1 or 0, of each basis weight in fusion_table's S3 fold: the
    classes under the centre and conjugation, taken in the order of the
    least Weyl dimension of a member, are dealt out alternately."""
    part, side = [-1] * len(dims), 0
    for i in sorted(range(len(dims)), key=dims.__getitem__):
        if part[i] < 0:
            side ^= 1
            for g in conjugations:
                for s in centre:
                    part[g[s[i]]] = side
    return part


def fusion_table(
    data: LieData, k: int, basis: list[Weight] | None = None
) -> list[tuple[Weight, Weight, Weight, int]]:
    """All nonzero structure constants (a, b, c, N) at level k, with a <= b,
    by row pair and then by c; basis, if given, is level_weights(data, k).

    The table is folded by symmetries.  The centre Z(G) acts on level-k
    weights by the simple currents of the nodes j with mark 1,

        sigma_j(lam) = rep - rho,  rep the alcove representative at level
        k + h_vee of lam + rho + (k + h_vee) omega_j,

    a weight walk with no fusion product, and N_{sa, tb}^{stc} = N_ab^c for
    s, t in Z(G) (Schellekens-Yankielowicz 1990; Fuchs 1991).  Charge
    conjugation, not the identity for A_n (n >= 2), D_n (n odd) and E6,
    gives N_{a*b*}^{c*} = N_ab^c (Fuchs, Affine Lie algebras and quantum
    groups, 1992).  And N_{abc} = N_ab^{c*} is symmetric in all three
    indices (Di Francesco-Mathieu-Senechal, Conformal Field Theory, 16.1),
    so N_xy^z = N_{x z*}^{y*} = N_{y z*}^{x*}.

    The basis is split into two parts, each a union of classes under the
    centre and conjugation (_split, checked).  The uncached Kac-Walton
    product runs once per orbit of pairs {a, b} within a part, on the pair
    whose smaller factor has the least Weyl dimension, and its terms are
    carried to the rest of the orbit, which stays within the part; pairs an
    orbit reaches twice must get the same terms.  A pair across the parts is
    filled from the computed rows, one step per nonzero entry N_xy^z,
    through the identity above: every entry N_ab^c of it is reached from the
    row {a, c*} or {b, c*}, whichever lies within a part.  An entry the fill
    reaches within a part is compared with the computed row, never written
    ("S3 symmetry broken").  No product of two basis weights is zero, so
    every pair gets a row ("S3 fill left a pair empty")."""
    if basis is None:
        basis = level_weights(data, k)
    n = len(basis)
    index = {w: i for i, w in enumerate(basis)}
    centre = _centre(data, basis, index, k)
    conj = _conjugation(data, basis, index)
    # the identity and charge conjugation, once if they agree
    conjugations = dict.fromkeys([centre[0], conj])
    dims = [_weyl_dimension(data, w) for w in basis]
    part = _split(dims, centre, conjugations)
    # so no orbit below leaves its part, and the fill writes no computed row
    check(all(part[g[s[i]]] == part[i] for g in conjugations for s in centre for i in range(n)),
          "the parts of the S3 fold are not unions of classes")
    products: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(n):
        for b in range(a, n):
            if part[a] != part[b] or (a, b) in products:
                continue
            orbit = {tuple(sorted((g[s[a]], g[t[b]]))) for g in conjugations for s in centre for t in centre}
            r, q = min(orbit, key=lambda p: (min(dims[p[0]], dims[p[1]]), p))
            rep_terms = [(index[c], N) for c, N in _kac_walton(data, k, basis[r], basis[q]).items()]
            # N_{g s r, g t q}^{g s t c} = N_rq^c
            for g in conjugations:
                for s in centre:
                    for t in centre:
                        terms = {g[s[t[c]]]: N for c, N in rep_terms}
                        row = products.setdefault(tuple(sorted((g[s[r]], g[t[q]]))), terms)
                        check(row == terms, "centre symmetry broken")
    # N_xy^z = N_{u z*}^{v*} for (u, v) = (x, y) and (y, x), from each
    # computed row {x, y}; a pair within a part is compared, never written
    broken = False
    for x, y in list(products):
        terms = products[x, y]
        for u, c in (x, conj[y]), (y, conj[x]):
            for z, N in terms.items():
                w = conj[z]
                key = (u, w) if u <= w else (w, u)
                if part[u] != part[w]:
                    products.setdefault(key, {})[c] = N
                elif products[key].get(c) != N:
                    broken = True
    check(not broken, "S3 symmetry broken")
    check(len(products) == n * (n + 1) // 2, "S3 fill left a pair empty")
    return [
        (basis[a], basis[b], basis[c], N)
        for a in range(n)
        for b in range(a, n)
        for c, N in sorted(products[a, b].items())
    ]


def fusion_table_json(data: LieData, k: int) -> str:
    """The text of json.dumps(doc, indent=2), doc holding type, k, the basis
    and one {"a", "b", "c", "N"} dict per fusion_table row under
    "constants"; each basis weight is rendered once, as a row cell
    (lie._json_list), and each row fills one template."""
    basis = level_weights(data, k)
    cell = {w: _json_list(map(str, w), 3) for w in basis}
    row = '{\n      "a": %s,\n      "b": %s,\n      "c": %s,\n      "N": %d\n    }'
    rows = (row % (cell[a], cell[b], cell[c], n) for a, b, c, n in fusion_table(data, k, basis))
    head = json.dumps({"type": str(data.lie_type), "k": k, "basis": [list(w) for w in basis]}, indent=2)
    # the header ends in "\n}"; the constants go before it
    return head[:-2] + ',\n  "constants": ' + _json_list(rows, 1) + "\n}"
