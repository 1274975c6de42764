"""The level-k fusion ring: level weights, the quotient map from the
representation ring, fusion products, holomorphic induction, and an
independent numeric oracle through character values at the special points

    t_nu = B_sharp(nu + rho) / (k + h_vee),   nu a level-k weight.

Products are computed exactly (tensor decomposition by the Klimyk rule
followed by reflection into the level alcove, i.e. the Kac-Walton
composition); the numeric evaluation is retained purely as a second,
independent check and never decides a value.

The dominant weights of V_mu come from a downward search from mu that
subtracts positive roots; Freudenthal multiplicities and Weyl dimensions
are computed in integer arithmetic (the Gram matrix scaled to integers,
exact divisibility asserted) and cached per type and weight.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import product as iter_product
from math import lcm
from typing import Mapping, Sequence

from .affine import dominantize, dominantize_walls, weight_wall_value
from .lie import (
    CartanPoint,
    LieData,
    Weight,
    _check_face_index,
    apply_weight,
    b_sharp,
    pairing,
    weyl_elements,
)

VANISH_TOL = 1e-8


def _check_weight(data: LieData, w: Sequence[int]) -> Weight:
    w = tuple(int(x) for x in w)
    if len(w) != data.rank:
        raise ValueError(f"weight {w} has wrong rank for {data.lie_type}")
    return w


def is_dominant(data: LieData, w: Sequence[int]) -> bool:
    return all(x >= 0 for x in w)


def in_level(data: LieData, w: Sequence[int], k: int) -> bool:
    return all(weight_wall_value(data, w, i, k) >= 0 for i in range(data.rank + 1))


def level_weights(data: LieData, k: int) -> list[Weight]:
    """The level-k weights, in lexicographic order."""
    if k < 0:
        raise ValueError("level must be >= 0")
    bounds = [k // c for c in data.comarks]
    out = [
        w
        for w in iter_product(*(range(b + 1) for b in bounds))
        if sum(a * b for a, b in zip(w, data.comarks)) <= k
    ]
    return sorted(out)


class CharacterElt:
    """A virtual character: finitely supported integer map on dominant weights."""

    __slots__ = ("data", "terms")

    def __init__(self, data: LieData, terms: Mapping[Weight, int] | None = None):
        self.data = data
        self.terms = {w: c for w, c in (terms or {}).items() if c}
        for w in self.terms:
            if not is_dominant(data, w):
                raise ValueError(f"{w} is not dominant")

    @classmethod
    def chi(cls, data: LieData, w: Sequence[int], coeff: int = 1) -> "CharacterElt":
        return cls(data, {_check_weight(data, w): coeff})

    def _check(self, other: "CharacterElt"):
        if self.data.lie_type != other.data.lie_type:
            raise ValueError("type mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, CharacterElt)
            and self.data.lie_type == other.data.lie_type
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return CharacterElt(self.data, out)

    def __neg__(self):
        return CharacterElt(self.data, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar: int):
        return CharacterElt(self.data, {w: scalar * c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        self._check(other)
        out = CharacterElt(self.data)
        for l, cl in self.terms.items():
            for m, cm in other.terms.items():
                out = out + (cl * cm) * tensor_decompose(self.data, l, m)
        return out

    def __repr__(self):
        body = " + ".join(f"{c}*chi{list(w)}" for w, c in sorted(self.terms.items()))
        return f"CharacterElt({body or '0'})"


class FusionElt:
    """An element of the level-k fusion ring, over the level-k weight basis."""

    __slots__ = ("data", "k", "terms")

    def __init__(self, data: LieData, k: int, terms: Mapping[Weight, int] | None = None):
        self.data = data
        self.k = k
        self.terms = {w: c for w, c in (terms or {}).items() if c}
        for w in self.terms:
            if not in_level(data, w, k):
                raise ValueError(f"{w} is not a level-{k} weight")

    def _check(self, other: "FusionElt"):
        if self.data.lie_type != other.data.lie_type or self.k != other.k:
            raise ValueError("fusion context mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, FusionElt)
            and self.data.lie_type == other.data.lie_type
            and self.k == other.k
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return FusionElt(self.data, self.k, out)

    def __neg__(self):
        return FusionElt(self.data, self.k, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar: int):
        return FusionElt(self.data, self.k, {w: scalar * c for w, c in self.terms.items()})

    def __repr__(self):
        body = " + ".join(f"{c}*[{list(w)}]" for w, c in sorted(self.terms.items()))
        return f"FusionElt(k={self.k}: {body or '0'})"


class LevelRepElt:
    """A virtual level-k representation of the central extension attached to
    a face I: integer map on the weights nu with
    <nu, alpha_i_vee> + k delta_{i,0} >= 0 for i outside I."""

    __slots__ = ("data", "I", "k", "terms")

    def __init__(self, data: LieData, I: Sequence[int], k: int, terms: Mapping[Weight, int] | None = None):
        self.data = data
        self.I = _check_face_index(data, I)
        self.k = k
        self.terms = {w: c for w, c in (terms or {}).items() if c}
        for w in self.terms:
            for i in range(data.rank + 1):
                if i not in self.I and weight_wall_value(data, w, i, k) < 0:
                    raise ValueError(f"{w} is not in the level-{k} cone of {self.I}")

    def __eq__(self, other):
        return (
            isinstance(other, LevelRepElt)
            and self.data.lie_type == other.data.lie_type
            and (self.I, self.k) == (other.I, other.k)
            and self.terms == other.terms
        )

    def __repr__(self):
        body = " + ".join(f"{c}*chi{list(w)}" for w, c in sorted(self.terms.items()))
        return f"LevelRepElt(I={self.I}, k={self.k}: {body or '0'})"


# ---------------------------------------------------------------------------
# weight multiplicities (Freudenthal) and dimensions

_MULT_CACHE: dict[tuple, dict[Weight, int]] = {}
_FULL_MULT_CACHE: dict[tuple, dict[Weight, int]] = {}
_DIM_CACHE: dict[tuple, int] = {}


def _dominant_rep(data: LieData, w: Sequence) -> Weight:
    out = tuple(w)
    while True:
        neg = next((j for j, x in enumerate(out) if x < 0), None)
        if neg is None:
            return tuple(int(x) for x in out)
        c = out[neg]
        root = data.node_root[neg + 1]
        out = tuple(x - c * r for x, r in zip(out, root))


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
                if nxt not in height and all(x >= 0 for x in nxt):
                    height[nxt] = height[lam] + sum(root.coeffs)
                    below.append(nxt)
        frontier = below
    return sorted(height, key=lambda lam: (height[lam], lam))


def weyl_dimension(data: LieData, mu: Sequence[int]) -> int:
    """Dimension of the irreducible representation by the Weyl formula."""
    mu = _check_weight(data, mu)
    if not is_dominant(data, mu):
        raise ValueError(f"{mu} is not dominant")
    key = (data.lie_type, mu)
    dim = _DIM_CACHE.get(key)
    if dim is None:
        num = den = 1
        for root in data.positive_roots:
            num *= sum((a + 1) * b for a, b in zip(mu, root.coroot))
            den *= sum(root.coroot)
        dim, rem = divmod(num, den)
        assert rem == 0 and dim > 0
        _DIM_CACHE[key] = dim
    return dim


def dominant_weight_multiplicities(data: LieData, mu: Sequence[int]) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V_mu, by the Freudenthal
    recursion, cross-checked against the Weyl dimension formula.

    Inner products are taken with the integer-scaled Gram matrix; the scale
    cancels in the recursion and in the norm cut-off."""
    mu = _check_weight(data, mu)
    if not is_dominant(data, mu):
        raise ValueError(f"{mu} is not dominant")
    key = (data.lie_type, mu)
    cached = _MULT_CACHE.get(key)
    if cached is not None:
        return cached

    # the Gram matrix on the fundamental weights, scaled to integers
    scale = lcm(*(x.denominator for row in data.gram_weight for x in row))
    gram = [[int(x * scale) for x in row] for row in data.gram_weight]

    def ip(a: Sequence[int], b: Sequence[int]) -> int:
        return sum(x * sum(g * y for g, y in zip(row, b)) for x, row in zip(a, gram))

    # each positive root with its scaled squared length
    roots = [(root.weight, ip(root.weight, root.weight)) for root in data.positive_roots]
    mu_rho = tuple(x + 1 for x in mu)
    top_norm = ip(mu_rho, mu_rho)
    mu_norm = ip(mu, mu)
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
                m_tau = mults.get(_dominant_rep(data, tau), 0)
                if m_tau:
                    total += m_tau * (lam_beta + j * beta_norm)
                j += 1
        lam_rho = tuple(x + 1 for x in lam)
        denom = top_norm - ip(lam_rho, lam_rho)
        assert denom > 0
        val, rem = divmod(2 * total, denom)
        assert rem == 0 and val >= 0, (mu, lam, 2 * total, denom)
        if val:
            mults[lam] = val
    assert (
        sum(m * weyl_orbit_size(data, lam) for lam, m in mults.items())
        == weyl_dimension(data, mu)
    ), f"Freudenthal/Weyl dimension mismatch for {mu}"
    _MULT_CACHE[key] = mults
    return mults


def weyl_orbit(data: LieData, lam: Weight) -> list[Weight]:
    """The classical Weyl orbit of a weight."""
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


def weyl_orbit_size(data: LieData, lam: Weight) -> int:
    return len(weyl_orbit(data, lam))


def weight_multiplicities(data: LieData, mu: Sequence[int]) -> dict[Weight, int]:
    """Multiplicities of all weights of V_mu."""
    mu = _check_weight(data, mu)
    key = (data.lie_type, mu)
    cached = _FULL_MULT_CACHE.get(key)
    if cached is not None:
        return cached
    out: dict[Weight, int] = {}
    for lam, m in dominant_weight_multiplicities(data, mu).items():
        for w in weyl_orbit(data, lam):
            out[w] = m
    _FULL_MULT_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# tensor products and the quotient map


def _dominantize_linear_strict(data: LieData, v: Sequence[int]) -> tuple[Weight, int]:
    """Reduce by the classical Weyl action; sign 0 on a chamber wall."""
    out = tuple(v)
    sign = 1
    while True:
        neg = next((j for j, x in enumerate(out) if x < 0), None)
        if neg is None:
            break
        c = out[neg]
        root = data.node_root[neg + 1]
        out = tuple(x - c * r for x, r in zip(out, root))
        sign = -sign
    if any(x == 0 for x in out):
        return out, 0
    return out, sign


_TENSOR_CACHE: dict[tuple, dict[Weight, int]] = {}


def tensor_decompose(data: LieData, lam: Sequence[int], mu: Sequence[int]) -> CharacterElt:
    """Decomposition of V_lam (x) V_mu by the Klimyk rule."""
    lam, mu = _check_weight(data, lam), _check_weight(data, mu)
    if not (is_dominant(data, lam) and is_dominant(data, mu)):
        raise ValueError("tensor factors must be dominant")
    cache_key = (data.lie_type,) + tuple(sorted((lam, mu)))
    cached = _TENSOR_CACHE.get(cache_key)
    if cached is not None:
        return CharacterElt(data, cached)
    if weyl_dimension(data, mu) > weyl_dimension(data, lam):
        lam, mu = mu, lam
    out: dict[Weight, int] = {}
    for tau, m in weight_multiplicities(data, mu).items():
        v = tuple(a + b + 1 for a, b in zip(lam, tau))
        dom, sign = _dominantize_linear_strict(data, v)
        if sign == 0:
            continue
        key = tuple(x - 1 for x in dom)
        out[key] = out.get(key, 0) + sign * m
    out = {w: c for w, c in out.items() if c}
    assert all(c > 0 for c in out.values()), "Klimyk produced a negative multiplicity"
    dim_check = sum(c * weyl_dimension(data, w) for w, c in out.items())
    assert dim_check == weyl_dimension(data, lam) * weyl_dimension(data, mu)
    _TENSOR_CACHE[cache_key] = out
    return CharacterElt(data, out)


def quotient_map(chi: CharacterElt, k: int) -> FusionElt:
    """The quotient from the representation ring onto the level-k fusion
    ring: reflect the rho-shifted weight into the shifted-level alcove."""
    if k < 0:
        raise ValueError("level must be >= 0")
    data = chi.data
    m = k + data.dual_coxeter
    out: dict[Weight, int] = {}
    for mu, c in chi.terms.items():
        shifted = tuple(x + 1 for x in mu)
        rep, sign, _ = dominantize(data, shifted, m)
        if sign == 0:
            continue
        key = tuple(x - 1 for x in rep)
        out[key] = out.get(key, 0) + sign * c
    return FusionElt(data, k, out)


_FUSION_CACHE: dict[tuple, dict[Weight, int]] = {}


def fusion_product(a: FusionElt, b: FusionElt) -> FusionElt:
    """Product in the fusion ring (tensor product followed by the quotient)."""
    a._check(b)
    data, k = a.data, a.k
    out = FusionElt(data, k)
    for l, cl in a.terms.items():
        for m, cm in b.terms.items():
            key = (data.lie_type, k) + tuple(sorted((l, m)))
            terms = _FUSION_CACHE.get(key)
            if terms is None:
                terms = quotient_map(tensor_decompose(data, l, m), k).terms
                assert all(c > 0 for c in terms.values()), "negative fusion coefficient"
                _FUSION_CACHE[key] = terms
            out = out + (cl * cm) * FusionElt(data, k, terms)
    return out


def fusion_unit(data: LieData, k: int) -> FusionElt:
    return FusionElt(data, k, {(0,) * data.rank: 1})


# ---------------------------------------------------------------------------
# special points and the numeric oracle


def special_point(data: LieData, nu: Sequence[int], k: int) -> CartanPoint:
    """t_nu = B_sharp(nu + rho)/(k + h_vee), interior to the alcove."""
    nu = _check_weight(data, nu)
    if not in_level(data, nu, k):
        raise ValueError(f"{nu} is not a level-{k} weight")
    m = k + data.dual_coxeter
    return tuple(x / m for x in b_sharp(data, tuple(a + 1 for a in nu)))


def _exp2pi(t: Fraction) -> complex:
    return cmath.exp(2j * cmath.pi * float(t))


def irreducible_character_value(data: LieData, mu: Weight, xi: Sequence) -> complex:
    """chi_mu(exp xi) as a sum over the weights of V_mu."""
    return sum(
        m * _exp2pi(pairing(tau, xi))
        for tau, m in weight_multiplicities(data, mu).items()
    )


def character_value(chi: CharacterElt, xi: Sequence) -> complex:
    return sum(
        c * irreducible_character_value(chi.data, mu, xi)
        for mu, c in chi.terms.items()
    )


def weyl_character_value(data: LieData, mu: Weight, xi: Sequence) -> complex:
    """Second numeric oracle: the Weyl character formula quotient at a
    regular point."""
    elts = weyl_elements(data, (0,))
    mu_rho = tuple(x + 1 for x in mu)
    rho = data.rho
    num = sum(e.sign * _exp2pi(pairing(apply_weight(e, mu_rho, 0), xi)) for e in elts)
    den = sum(e.sign * _exp2pi(pairing(apply_weight(e, rho, 0), xi)) for e in elts)
    return num / den


def fusion_character_value(phi: FusionElt, nu: Weight) -> complex:
    """Numeric value of a fusion element at the special point t_nu."""
    xi = special_point(phi.data, nu, phi.k)
    return sum(
        c * irreducible_character_value(phi.data, mu, xi)
        for mu, c in phi.terms.items()
    )


def ideal_membership(chi: CharacterElt, k: int) -> bool:
    """Whether chi lies in the level-k fusion ideal.

    Decided exactly by the quotient map; the numeric vanishing test at all
    special points must agree, and any disagreement raises.
    """
    data = chi.data
    exact = not quotient_map(chi, k)
    numeric = all(
        abs(character_value(chi, special_point(data, nu, k))) < VANISH_TOL
        for nu in level_weights(data, k)
    )
    if exact != numeric:
        raise ArithmeticError(
            f"exact and numeric ideal tests disagree for k={k}: "
            f"exact={exact}, numeric={numeric}"
        )
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
    m = phi.k + data.dual_coxeter
    walls = [i for i in range(data.rank + 1) if i not in J]
    out: dict[Weight, int] = {}
    for mu, c in phi.terms.items():
        shifted = tuple(x + 1 for x in mu)
        rep, sign, _ = dominantize_walls(data, shifted, m, walls)
        if sign == 0:
            continue
        key = tuple(x - 1 for x in rep)
        out[key] = out.get(key, 0) + sign * c
    return LevelRepElt(data, J, phi.k, out)


def holomorphic_induction_bruteforce(phi: LevelRepElt, J: Sequence[int]) -> LevelRepElt:
    """Oracle implementation: search W_J exhaustively for the unique element
    carrying the shifted weight into the strict cone."""
    data = phi.data
    J = _check_face_index(data, J)
    if not set(J) <= set(phi.I):
        raise ValueError(f"{J} is not a subset of {phi.I}")
    m = phi.k + data.dual_coxeter
    walls = [i for i in range(data.rank + 1) if i not in J]
    out: dict[Weight, int] = {}
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


def project_to_fusion(phi: LevelRepElt) -> FusionElt:
    """The map into the fusion ring for a singleton face (full affine
    skew-symmetrization on basis characters)."""
    if len(phi.I) != 1:
        raise ValueError("projection to the fusion ring needs a singleton face")
    data = phi.data
    m = phi.k + data.dual_coxeter
    out: dict[Weight, int] = {}
    for mu, c in phi.terms.items():
        rep, sign, _ = dominantize(data, tuple(x + 1 for x in mu), m)
        if sign == 0:
            continue
        key = tuple(x - 1 for x in rep)
        out[key] = out.get(key, 0) + sign * c
    return FusionElt(data, phi.k, out)


# ---------------------------------------------------------------------------
# fusion tables and serialization


def fusion_table(data: LieData, k: int) -> list[tuple[Weight, Weight, Weight, int]]:
    """All nonzero structure constants (a, b, c, N) at level k, with a <= b."""
    basis = level_weights(data, k)
    rows = []
    for i, a in enumerate(basis):
        for b in basis[i:]:
            prod = fusion_product(
                FusionElt(data, k, {a: 1}), FusionElt(data, k, {b: 1})
            )
            for c, n in sorted(prod.terms.items()):
                rows.append((a, b, c, n))
    return rows


def fusion_table_json(data: LieData, k: int) -> dict:
    return {
        "type": str(data.lie_type),
        "k": k,
        "basis": [list(w) for w in level_weights(data, k)],
        "constants": [
            {"a": list(a), "b": list(b), "c": list(c), "N": n}
            for a, b, c, n in fusion_table(data, k)
        ],
    }


def fusion_table_csv(data: LieData, k: int) -> str:
    lines = ["a,b,c,N"]
    for a, b, c, n in fusion_table(data, k):
        lines.append(
            ";".join(str(x) for x in a)
            + ","
            + ";".join(str(x) for x in b)
            + ","
            + ";".join(str(x) for x in c)
            + f",{n}"
        )
    return "\n".join(lines) + "\n"
