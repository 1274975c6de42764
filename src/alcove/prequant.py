"""Conjugacy classes as alcove points: the level-k pre-quantization test,
quantization to fusion generators, and central-extension phase arithmetic.

A conjugacy class is the class of exp(xi) for a unique xi in the closed
fundamental alcove.  Central extensions enter only through their phase
homomorphisms on the integral lattice, represented as exact rationals
modulo 1; no extension groups are ever constructed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .fusion import in_level, level_weights
from .lie import (
    CartanPoint,
    FaceIndex,
    LieData,
    Weight,
    alcove_face_of,
    b_flat,
    b_sharp,
    basic_pairing,
    face_data,
    pairing,
)


class ConjClass(NamedTuple):
    """A conjugacy class: its alcove point and the face it is interior to."""

    xi: CartanPoint
    face: FaceIndex


def conjugacy_class(data: LieData, xi: Sequence) -> ConjClass:
    xi = tuple(Fraction(x) for x in xi)
    return ConjClass(xi, alcove_face_of(data, xi))


def phase(x: Fraction | int) -> Fraction:
    """Canonical representative of a rational phase in [0, 1)."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def _check_integral(data: LieData, lam: Sequence) -> tuple[int, ...]:
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != data.rank:
        raise ValueError("rank mismatch")
    if any(x.denominator != 1 for x in lam):
        raise ValueError(f"{lam} is not in the integral (coroot) lattice")
    return tuple(int(x) for x in lam)


def prequantizable(data: LieData, xi: Sequence, k: int) -> bool:
    """Whether the class of exp(xi) admits a level-k pre-quantization:
    b_flat(k xi) must be a weight."""
    xi = tuple(Fraction(x) for x in xi)
    alcove_face_of(data, xi)  # raises if outside the closed alcove
    if k < 0:
        raise ValueError("level must be >= 0")
    return all((k * x).denominator == 1 for x in b_flat(data, xi))


def quantize(data: LieData, xi: Sequence, k: int) -> Weight:
    """The level-k weight labeling the quantization of the class of exp(xi)."""
    if k < 1:
        raise ValueError("quantization needs level >= 1")
    if not prequantizable(data, xi, k):
        raise ValueError(f"class at {tuple(xi)} is not pre-quantizable at level {k}")
    mu = tuple(int(k * x) for x in b_flat(data, xi))
    assert in_level(data, mu, k)
    return mu


def enumerate_prequantized(data: LieData, k: int) -> list[ConjClass]:
    """All level-k pre-quantized conjugacy classes; quantize maps them
    bijectively onto the level-k weights, in order."""
    if k < 1:
        raise ValueError("level must be >= 1")
    out = []
    for mu in level_weights(data, k):
        xi = tuple(x / k for x in b_sharp(data, mu))
        out.append(conjugacy_class(data, xi))
    return out


def central_phase(data: LieData, xi: Sequence, lam: Sequence) -> Fraction:
    """Phase of the holonomy homomorphism of exp(xi) on a lattice vector:
    B(xi, lam) mod 1."""
    lam = _check_integral(data, lam)
    return phase(basic_pairing(data, xi, lam))


def extension_power_trivial(data: LieData, xi: Sequence, I: Sequence[int], k: int) -> bool:
    """Whether the k-th power of the central extension attached to the face
    of xi is trivial: k B(xi, .) must be integral on the lattice."""
    xi = tuple(Fraction(x) for x in xi)
    if alcove_face_of(data, xi) != tuple(sorted(set(I))):
        raise ValueError(f"{xi} is not interior to the face {tuple(I)}")
    basis = [data.node_coroot[i + 1] for i in range(data.rank)]
    return all(phase(k * basic_pairing(data, xi, lam)) == 0 for lam in basis)


def spinc_phase(data: LieData, I: Sequence[int], lam: Sequence) -> Fraction:
    """Phase of the twisted Spin_c homomorphism of a face on a lattice
    vector: <rho - rho_I, lam> mod 1.  Vanishes on the coroot lattice of the
    face group, so it descends to its fundamental group."""
    lam = _check_integral(data, lam)
    f = face_data(data, I)
    diff = tuple(Fraction(r) - ri for r, ri in zip(data.rho, f.rho_I))
    return phase(pairing(diff, lam))


def coxeter_power_identity_check(data: LieData, I: Sequence[int]) -> bool:
    """Check that the dual-Coxeter power of the central phase at the
    distinguished face point equals the Spin_c phase, on a lattice basis."""
    f = face_data(data, I)
    h = data.dual_coxeter
    for i in range(data.rank):
        lam = data.node_coroot[i + 1]
        lhs = phase(h * basic_pairing(data, f.nu_I_sharp, lam))
        rhs = spinc_phase(data, I, lam)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# catalog output


def prequant_catalog(data: LieData, k: int) -> list[dict]:
    """One row per pre-quantized class: alcove point, face, label weight,
    Weyl order of the face, and the phase table on the lattice basis."""
    from .lie import _frac_str

    rows = []
    for cc in enumerate_prequantized(data, k):
        mu = quantize(data, cc.xi, k)
        f = face_data(data, cc.face)
        phases = [
            _frac_str(central_phase(data, cc.xi, data.node_coroot[i + 1]))
            for i in range(data.rank)
        ]
        rows.append(
            {
                "xi": [_frac_str(x) for x in cc.xi],
                "face": list(cc.face),
                "mu": list(mu),
                "weyl_order": f.weyl_order,
                "phases": phases,
            }
        )
    return rows
