"""Sparse integer group-ring elements over the weight lattice, and
anti-invariants for the finite groups W_I under the shifted-level action.

Both element classes are alcove.sparse.SparseElt subclasses and carry
their level context m (the shifted level at which anti-invariance is
measured); mixing levels or ranks in a binary operation raises
LevelMismatchError.  Anti-invariants are stored by their regular cone
representatives, never by full expansion, and re-skewed between faces by
affine.dominantize_terms.

No element of W_I is ever listed.  Re-skewing reduces each term into the
cone with its sign, and a term on a wall drops out, because its stabilizer
contains a reflection; expansion sums the signed orbit walk
affine.weyl_orbit of each regular representative.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .affine import _weight_walls, affine_reflect_weight, dominantize_terms, weyl_orbit
from .lie import LieData, Weight, _bounded_weyl_order, _check_face_index, _walls_outside
from .sparse import SparseElt, combine


class LevelMismatchError(ValueError):
    """Raised when two elements with different level or rank context meet."""


class NotAntiInvariantError(ValueError):
    """Raised when an element fails the anti-invariance check."""

    def __init__(self, generator: int):
        self.generator = generator
        super().__init__(f"element is not anti-invariant: generator {generator} fails")


class GroupRingElt(SparseElt):
    """A finitely supported integer map on the weight lattice."""

    __slots__ = _fields = ("data", "level")
    _mismatch = LevelMismatchError

    def __init__(self, data: LieData, level: int, terms: Mapping[Weight, int] | None = None):
        self.data = data
        self.level = level
        super().__init__(terms)

    def _validate(self, w: Weight) -> None:
        _weight_walls(self.data, w, self.level)

    @classmethod
    def delta(cls, data: LieData, level: int, weight: Sequence[int], coeff: int = 1) -> "GroupRingElt":
        return cls(data, level, {tuple(weight): coeff})

    @classmethod
    def unit(cls, data: LieData, level: int) -> "GroupRingElt":
        return cls.delta(data, level, (0,) * data.rank)

    def __mul__(self, other):
        """Convolution product (the group-ring multiplication)."""
        if isinstance(other, int):
            return self.__rmul__(other)
        self._check(other)
        # the shifts of other by one weight w1 are distinct
        out = combine(
            (c1, {tuple([a + b for a, b in zip(w1, w2)]): c2 for w2, c2 in other.terms.items()})
            for w1, c1 in self.terms.items()
        )
        return self._new(out)


class AntiInvariant(SparseElt):
    """A W_I-anti-invariant stored by its regular cone representatives.

    Keys are weights nu in the strict cone (<nu, alpha_i_vee> + m delta_{i,0}
    >= 1 for i outside I); the element it denotes is the sum of coeff *
    Sk_I(nu) over the stored terms.
    """

    __slots__ = _fields = ("data", "level", "I")
    _mismatch = LevelMismatchError

    def __init__(self, data: LieData, level: int, I: Sequence[int], terms: Mapping[Weight, int] | None = None):
        self.data = data
        self.level = level
        self.I = _check_face_index(data, I)
        super().__init__(terms)

    def _validate(self, nu: Weight) -> None:
        for i, v in enumerate(_weight_walls(self.data, nu, self.level)):
            if v < 1 and i not in self.I:
                raise ValueError(f"representative {nu} is not regular for wall {i}")


def _reflect(phi: GroupRingElt, i: int) -> GroupRingElt:
    """phi pushed forward along the reflection at wall i, at its level."""
    # a reflection is a bijection, so no two terms meet
    data, level = phi.data, phi.level
    return phi._new({affine_reflect_weight(data, i, w, level): c for w, c in phi.terms.items()})


def check_anti_invariant(phi: GroupRingElt, I: Sequence[int]) -> None:
    """Verify that each generator of W_I negates phi under the level action."""
    for i in _walls_outside(phi.data, _check_face_index(phi.data, I)):
        if _reflect(phi, i) != -phi:
            raise NotAntiInvariantError(i)


def to_cone_basis(phi: GroupRingElt, I: Sequence[int]) -> AntiInvariant:
    """Express an anti-invariant element by its cone representatives.

    Inverse of expand(); raises NotAntiInvariantError if phi is not
    anti-invariant over I at its level.
    """
    I = _check_face_index(phi.data, I)
    check_anti_invariant(phi, I)
    walls = _walls_outside(phi.data, I)
    reps = {}
    for nu, c in phi.terms.items():
        values = _weight_walls(phi.data, nu, phi.level)
        if all(values[i] >= 1 for i in walls):
            reps[nu] = c
    return AntiInvariant._trusted(reps, phi.data, phi.level, I)


def expand(anti: AntiInvariant) -> GroupRingElt:
    """Expand cone representatives back to the full group-ring element: the
    signed W_I-orbit of each regular representative, summed.

    The orbit of a regular representative is free, so the walk visits
    |W_I| points; a W_I beyond lie._WEYL_ENUMERATION_LIMIT elements is
    refused with ValueError before any walk, whatever the terms."""
    _bounded_weyl_order(anti.data, anti.I)
    walls = _walls_outside(anti.data, anti.I)
    out = combine((c, weyl_orbit(anti.data, nu, anti.level, walls)) for nu, c in anti.terms.items())
    return GroupRingElt._trusted(out, anti.data, anti.level)


def reskew_to(anti: AntiInvariant, J: Sequence[int]) -> AntiInvariant:
    """Re-express a W_I-anti-invariant as a W_J-anti-invariant, J a subset
    of I.

    Works basis-wise: each representative is reduced into the J-cone with a
    sign, and wall-stabilized representatives drop out.  This is integer
    exact; no division by |W_I| is ever performed.
    """
    J = _check_face_index(anti.data, J)
    if not set(J) <= set(anti.I):
        raise ValueError(f"{J} is not a subset of {anti.I}")
    walls = _walls_outside(anti.data, J)
    out = dominantize_terms(anti.data, anti.terms, anti.level, walls, 0)
    return AntiInvariant._trusted(out, anti.data, anti.level, J)
