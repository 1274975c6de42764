"""Conjugacy classes as alcove points: the level-k pre-quantization test,
quantization to fusion generators, and central-extension phase arithmetic.

A conjugacy class is the class of exp(xi) for a unique xi in the closed
fundamental alcove.  Central extensions enter only through their phase
homomorphisms on the integral lattice, represented as exact rationals
modulo 1; no extension groups are ever constructed.

The pre-quantization test, quantize and the catalog run on integer
numerators over one denominator, xi = X / D, with the integer Gram tables
of LieData (gram_coroot_scaled = (N_c, D_c), gram_weight_scaled =
(N_w, D_w)).  The face of xi is lie._scaled_face, read off the integer wall
values, and b_flat(xi) = N_c X / (D_c D), so b_flat(k xi) is a weight
exactly when D_c D divides k N_c X.  The catalog builds the class of a
level-k weight mu as X = N_w mu over D = D_w k (lie._sharp_scaled), and its
phases on the lattice basis are (N_c X mod D_c D) / (D_c D).  Fraction
appears only at the edges: input points are scaled once by lie._scaled, and
output points and phases are printed from numerators.
extension_power_trivial and the phase functions keep their own Fraction
computation, so the acceptance suite compares two routes.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .fusion import _check_level, in_level, level_weights
from .lie import (
    CartanPoint,
    FaceIndex,
    LieData,
    Weight,
    _frac_str,
    _scaled,
    _scaled_face,
    _sharp_scaled,
    alcove_face_of,
    basic_pairing,
    check,
    face_data,
    pairing,
)


class ConjClass(NamedTuple):
    """A conjugacy class: its alcove point and the face it is interior to."""

    xi: CartanPoint
    face: FaceIndex


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


def _prequant_scaled(
    data: LieData, X: Sequence[int], D: int, k: int
) -> tuple[FaceIndex, list[int], Weight | None]:
    """(face, flat, label) for xi = X / D: the face of xi, the numerators of
    b_flat(xi) = flat / (D_c D), and the level-k label b_flat(k xi) if it is
    a weight, else None.  Raises OutsideAlcoveError if xi is outside the
    closed alcove, ValueError if k < 0."""
    face = _scaled_face(data, X, D)
    _check_level(k)
    gram, den = data.gram_coroot_scaled
    den *= D
    flat = [sum(map(mul, row, X)) for row in gram]
    scaled = [k * x for x in flat]
    if any(x % den for x in scaled):
        return face, flat, None
    label = tuple(x // den for x in scaled)
    check(in_level(data, label, k), f"pre-quantization label {label} is not at level {k}")
    return face, flat, label


def prequantizable(data: LieData, xi: Sequence, k: int) -> bool:
    """Whether the class of exp(xi) admits a level-k pre-quantization:
    b_flat(k xi) must be a weight."""
    return _prequant_scaled(data, *_scaled(data, xi), k)[2] is not None


def quantize(data: LieData, xi: Sequence, k: int) -> Weight:
    """The level-k weight labeling the quantization of the class of exp(xi)."""
    if k < 1:
        raise ValueError("quantization needs level >= 1")
    mu = _prequant_scaled(data, *_scaled(data, xi), k)[2]
    if mu is None:
        raise ValueError(f"class at {tuple(xi)} is not pre-quantizable at level {k}")
    return mu


def _level_points(data: LieData, k: int) -> list[tuple[Weight, list[int], int]]:
    """The level-k weights mu, each with xi = B_sharp(mu) / k as numerators
    X over one denominator D."""
    if k < 1:
        raise ValueError("pre-quantized classes need level >= 1")
    return [(mu, *_sharp_scaled(data, mu, k)) for mu in level_weights(data, k)]


def enumerate_prequantized(data: LieData, k: int) -> list[ConjClass]:
    """All level-k pre-quantized conjugacy classes; quantize maps them
    bijectively onto the level-k weights, in order."""
    return [
        ConjClass(tuple(Fraction(x, D) for x in X), _prequant_scaled(data, X, D, k)[0])
        for _, X, D in _level_points(data, k)
    ]


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
    rows = []
    for mu, X, D in _level_points(data, k):
        face, flat, label = _prequant_scaled(data, X, D, k)
        check(label == mu, f"catalog label {label} is not the weight {mu} of its level-{k} class")
        den = data.gram_coroot_scaled[1] * D
        rows.append(
            {
                "xi": [_frac_str(x, D) for x in X],
                "face": list(face),
                "mu": list(label),
                "weyl_order": face_data(data, face).weyl_order,
                "phases": [_frac_str(x % den, den) for x in flat],
            }
        )
    return rows
