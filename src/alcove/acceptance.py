"""The acceptance suite: executable end-to-end checks of the package's
mathematical contracts, shared by the test suite and the `selftest` command.

Each criterion returns a detail string and raises CheckFailed (lie.check)
on failure; the runner turns that into one pass/fail line per criterion.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .affine import _weight_walls
from .fusion import (
    CharacterElt,
    FusionElt,
    LevelRepElt,
    _special_values,
    fusion_product,
    fusion_unit,
    holomorphic_induction,
    level_weights,
    quotient_map,
)
from .groupring import AntiInvariant, reskew_to
from .lie import (
    LieData,
    _walls_outside,
    alcove_face_of,
    b_sharp,
    basic_pairing,
    build_lie_data,
    check,
    face_data,
    pairing,
)
from .prequant import (
    coxeter_power_identity_check,
    enumerate_prequantized,
    extension_power_trivial,
    prequantizable,
    quantize,
    spinc_phase,
)
from .resolution import ChainElt, OrbitComplex

RANK_LE_2 = ["A1", "A2", "B2", "C2", "G2"]
RANK_LE_4 = RANK_LE_2 + ["A3", "A4", "B3", "B4", "C3", "C4", "D4", "F4"]
RANK_LE_8 = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def nonempty_faces(nodes: Sequence[int]):
    """The nonempty subsets of ``nodes``, by size, each in lexicographic order."""
    for size in range(1, len(nodes) + 1):
        yield from itertools.combinations(nodes, size)


def pair_products(d: LieData, k: int) -> tuple[dict, dict]:
    """The level-k basis as fusion elements keyed by weight, and the fusion
    product of every ordered pair of basis weights, keyed by the pair."""
    basis = {w: FusionElt(d, k, {w: 1}) for w in level_weights(d, k)}
    pairs = itertools.product(basis.items(), repeat=2)
    return basis, {(a, b): fusion_product(x, y) for (a, x), (b, y) in pairs}


def criterion_1_su2_closed_form(seed: int) -> str:
    """SU(2) fusion constants equal the closed-form rule for k = 1..4."""
    d = build_lie_data("A1")
    checked = 0
    for k in (1, 2, 3, 4):
        basis, products = pair_products(d, k)
        for ((a,), (b,)), prod in products.items():
            for (c,) in basis:
                parity_ok = (a + b + c) % 2 == 0
                expect = (
                    1
                    if parity_ok and abs(a - b) <= c <= min(a + b, 2 * k - a - b)
                    else 0
                )
                check(prod.terms.get((c,), 0) == expect, f"A1 k={k}: N_{a},{b}^{c} is not {expect}")
                checked += 1
    return f"{checked} structure constants"


def criterion_2_exact_numeric_agreement(seed: int) -> str:
    """Fusion products evaluated at all special points agree with products
    of character values to 1e-7, for rank <= 2 and k <= 3."""
    checked = 0
    for name in RANK_LE_2:
        d = build_lie_data(name)
        for k in (1, 2, 3):
            basis, products = pair_products(d, k)
            # chi_mu at the special point of each basis weight, in basis order
            values = {mu: list(_special_values(d, {mu: 1}, k)) for mu in basis}
            for (lam, mu), prod in products.items():
                for i, nu in enumerate(basis):
                    lhs = sum(c * values[w][i] for w, c in prod.terms.items())
                    rhs = values[lam][i] * values[mu][i]
                    check(abs(lhs - rhs) < 1e-7, f"{name} k={k}: {lam} * {mu} is off at t_{nu}")
                    checked += 1
    return f"{checked} point evaluations"


def criterion_3_ring_axioms(seed: int) -> str:
    """Commutativity, associativity and the unit for A2 level 2 and G2 level 1."""
    checked = 0
    for name, k in [("A2", 2), ("G2", 1)]:
        d = build_lie_data(name)
        basis, products = pair_products(d, k)
        unit = fusion_unit(d, k)
        for w, a in basis.items():
            check(fusion_product(a, unit) == a, f"{name} k={k}: the unit does not fix {w}")
        for a, b in products:
            check(products[a, b] == products[b, a], f"{name} k={k}: {a} * {b} is not commutative")
        for a, b, c in itertools.product(basis, repeat=3):
            lhs = fusion_product(products[a, b], basis[c])
            rhs = fusion_product(basis[a], products[b, c])
            check(lhs == rhs, f"{name} k={k}: the product of {a}, {b} and {c} is not associative")
            checked += 1
    return f"{checked} associativity triples"


def criterion_4_quotient_ring_hom(seed: int) -> str:
    """The quotient map is a ring homomorphism on 200 random virtual
    character pairs per group."""
    rng = random.Random(seed)
    pairs = 0
    for name in RANK_LE_2:
        d = build_lie_data(name)
        top = 4 if d.rank == 1 else 2

        def rand_char():
            chi = CharacterElt(d)
            for _ in range(rng.randint(1, 2)):
                w = tuple(rng.randint(0, top) for _ in range(d.rank))
                chi = chi + rng.randint(-3, 3) * CharacterElt.chi(d, w)
            return chi

        for _ in range(200):
            k = rng.randint(1, 4)
            a, b = rand_char(), rand_char()
            lhs = quotient_map(a * b, k)
            rhs = fusion_product(quotient_map(a, k), quotient_map(b, k))
            check(lhs == rhs, f"{name} k={k}: the quotient map fails on {a.terms}, {b.terms}")
            pairs += 1
    return f"{pairs} random pairs"


RESOLUTION_CONFIGS = [
    (name, J, 4) for name, rank in [("A1", 1), ("A2", 2), ("C2", 2)]
    for J in nonempty_faces(range(rank + 1))
] + [("G2", (0, 1, 2), 3), ("G2", (0,), 3)]


def criterion_5_resolution_exactness(seed: int) -> str:
    """Exactness of the truncated complexes: d^2 = 0, interior degrees exact
    with no torsion, top boundary injective, and H_0 as expected."""
    for name, J, n in RESOLUTION_CONFIGS:
        oc = OrbitComplex(build_lie_data(name), J)
        report = oc.homology_report(n)  # truncated() inside checks d^2 = 0
        check(report["all_ok"], f"{name} J={J}: a homology verdict fails: {report}")
    return f"{len(RESOLUTION_CONFIGS)} (group, face) configurations"


def criterion_6_homotopy_machinery(seed: int) -> str:
    """A_i commutes with the boundary, the composite A lowers the length
    filtration at interior degrees, and cycle contraction certifies
    d b = c on 100 random cycles per configuration."""
    rng = random.Random(seed)
    configs = [("A2", (0, 1, 2), 4), ("C2", (0, 1, 2), 4), ("G2", (0, 1, 2), 3)]
    contracted = 0
    for name, J, n in configs:
        data = build_lie_data(name)
        oc = OrbitComplex(data, J)
        for p in range(1, data.rank + 1):
            for key in oc.basis_elements(p, n):
                c = ChainElt(oc.J, p, {key: 1})
                for i in range(data.rank + 1):
                    check(oc.boundary(oc.deform(i, c)) == oc.deform(i, oc.boundary(c)),
                          f"{name}: A_{i} does not commute with d at {key}")
        for p in range(1, data.rank):
            for key in oc.basis_elements(p, n):
                c = ChainElt(oc.J, p, {key: 1})
                bound = oc.length_of(key[1])
                for (_, x), _ in oc.deform_all(c).terms.items():
                    check(oc.length_of(x) < bound, f"{name}: A does not lower the length of {key}")
        for _ in range(100):
            c = oc.random_cycle(1, n, rng)
            b = oc.contract_cycle(c)
            check(oc.boundary(b) == c, f"{name}: a contraction does not bound its cycle")
            contracted += 1
    return f"{contracted} contracted cycles"


def criterion_7_induction_coherence(seed: int) -> str:
    """Holomorphic induction composes along chains of faces and matches the
    cone-basis re-skew under the rho shift (A2, level 1)."""
    d = build_lie_data("A2")
    k = 1
    m = k + d.dual_coxeter
    nodes = (0, 1, 2)
    grid = list(itertools.product(range(-2, 4), repeat=2))
    chains = 0
    for I in nonempty_faces(nodes):
        for J in nonempty_faces(I):
            for K in nonempty_faces(J):
                for mu in grid:
                    try:
                        phi = LevelRepElt(d, I, k, {mu: 1})
                    except ValueError:
                        continue
                    via = holomorphic_induction(holomorphic_induction(phi, J), K)
                    check(via == holomorphic_induction(phi, K),
                          f"A2: induction from {I} to {K} through {J} fails at {mu}")
                chains += 1
    matched = 0
    for I in nonempty_faces(nodes):
        for J in nonempty_faces(I):
            for mu in grid:
                try:
                    phi = LevelRepElt(d, I, k, {mu: 1})
                    anti = AntiInvariant(d, m, I, {tuple(x + 1 for x in mu): 1})
                except ValueError:
                    continue
                ind = holomorphic_induction(phi, J)
                res = reskew_to(anti, J)
                shifted = {tuple(x - 1 for x in w): c for w, c in res.terms.items()}
                check(shifted == ind.terms, f"A2: induction {I} -> {J} is not the re-skew at {mu}")
                matched += 1
    return f"{chains} chains, {matched} rho-shift agreements"


def criterion_8_prequantization(seed: int) -> str:
    """Pre-quantized classes biject with level weights; the integrality test
    matches the phase-triviality test on a denominator <= 6 grid."""
    checked = 0
    for name in RANK_LE_2:
        d = build_lie_data(name)
        for k in (1, 2, 3, 4):
            classes = enumerate_prequantized(d, k)
            labels = [quantize(d, c.xi, k) for c in classes]
            check(labels == level_weights(d, k), f"{name} k={k}: labels are not the level weights")
            for mu in level_weights(d, k):
                xi = tuple(x / k for x in b_sharp(d, mu))
                check(quantize(d, xi, k) == mu, f"{name} k={k}: {mu} does not quantize back")
        bound = max(max(v) for v in d.alcove_vertices) + 1
        rng_coords = [Fraction(numer, 6) for numer in range(0, int(bound * 6) + 1)]
        for coords in itertools.product(rng_coords, repeat=d.rank):
            try:
                face = alcove_face_of(d, coords)
            except ValueError:
                continue
            for k in (1, 2, 3, 4):
                check(prequantizable(d, coords, k) == extension_power_trivial(d, coords, face, k),
                      f"{name} k={k}: the tests disagree at {list(map(str, coords))}")
                checked += 1
    return f"{checked} grid checks"


def criterion_9_phase_identities(seed: int) -> str:
    """Spin_c phases vanish on face coroot lattices and equal the dual
    Coxeter power of the central phase, for every face in every type of
    rank <= 4."""
    faces = 0
    for name in RANK_LE_4:
        d = build_lie_data(name)
        for I in nonempty_faces(range(d.rank + 1)):
            f = face_data(d, I)
            diff = tuple(Fraction(r) - ri for r, ri in zip(d.rho, f.rho_I))
            for lam in f.coroot_lattice_basis:
                val = pairing(diff, lam)
                check(val.denominator == 1, f"{name}: rho - rho_{I} is not integral on {lam}")
                check(spinc_phase(d, I, lam) == 0, f"{name}: Spin_c phase of {I} at {lam} is not 0")
            check(coxeter_power_identity_check(d, I), f"{name}: dual Coxeter power fails at {I}")
            faces += 1
    return f"{faces} faces"


def _min_coroot_norm(data: LieData, bound: int) -> Fraction:
    # integer-scaled Gram keeps the sweep in int arithmetic
    G, denom = data.gram_coroot_scaled
    best = None
    for lam in itertools.product(range(-bound, bound + 1), repeat=data.rank):
        if all(x == 0 for x in lam):
            continue
        Gl = [sum(G[i][j] * lam[j] for j in range(data.rank)) for i in range(data.rank)]
        norm = sum(lam[i] * Gl[i] for i in range(data.rank))
        if best is None or norm < best:
            best = norm
    return Fraction(best, denom)


def criterion_10_lie_structural(seed: int) -> str:
    """Structural invariants of the root data for every type of rank <= 8:
    two independent dual Coxeter computations agree, the minimal coroot
    lattice norm is 2, distinguished face points are interior to their
    faces, and the rho-shift lemma holds for rank <= 2."""
    for name in RANK_LE_8:
        d = build_lie_data(name)
        check(1 + pairing(d.highest_root.weight, d.rho_sharp) == d.dual_coxeter,
              f"{name}: h_vee is not 1 + <theta, rho_sharp>")
        check(1 + sum(d.comarks) == d.dual_coxeter, f"{name}: h_vee is not 1 + sum(comarks)")
        # search bound shrinks with the rank to stay inside the time budget;
        # every simple coroot is checked exactly at any rank
        bound = 3 if d.rank <= 4 else (2 if d.rank <= 6 else 1)
        check(_min_coroot_norm(d, bound) == 2, f"{name}: the least coroot lattice norm is not 2")
        for root in d.positive_roots:
            norm = basic_pairing(d, root.coroot, root.coroot)
            check(norm >= 2 and norm == 2 / root.half_norm, f"{name}: coroot norm {norm} at {root.coeffs}")
        nodes = range(d.rank + 1)
        # every face up to rank 4, and above it the vertices only
        faces = nonempty_faces(nodes) if d.rank <= 4 else itertools.combinations(nodes, 1)
        for I in faces:
            f = face_data(d, I)
            check(alcove_face_of(d, f.nu_I_sharp) == I, f"{name}: nu_I_sharp is off the face {I}")
    for name in RANK_LE_2:
        d = build_lie_data(name)
        for k in range(0, 5):
            m = k + d.dual_coxeter
            for I in nonempty_faces(range(d.rank + 1)):
                walls = _walls_outside(d, I)
                for mu in itertools.product(range(-2, 3), repeat=d.rank):
                    values = _weight_walls(d, mu, k)
                    shifted = _weight_walls(d, tuple(x + 1 for x in mu), m)
                    in_cone = all(values[i] >= 0 for i in walls)
                    check(in_cone == all(shifted[i] >= 1 for i in walls),
                          f"{name} k={k}: the rho-shift lemma fails at {mu} for the face {I}")
    return f"{len(RANK_LE_8)} types"


@dataclass
class CriterionResult:
    name: str
    ok: bool
    detail: str
    seconds: float


CRITERIA: list[tuple[str, Callable[[int], str]]] = [
    ("1-su2-closed-form", criterion_1_su2_closed_form),
    ("2-exact-numeric-agreement", criterion_2_exact_numeric_agreement),
    ("3-ring-axioms", criterion_3_ring_axioms),
    ("4-quotient-ring-hom", criterion_4_quotient_ring_hom),
    ("5-resolution-exactness", criterion_5_resolution_exactness),
    ("6-homotopy-machinery", criterion_6_homotopy_machinery),
    ("7-induction-coherence", criterion_7_induction_coherence),
    ("8-prequantization", criterion_8_prequantization),
    ("9-phase-identities", criterion_9_phase_identities),
    ("10-lie-structural", criterion_10_lie_structural),
]


class UnknownCriteriaError(ValueError):
    pass


def select_criteria(names: Iterable[str] | None = None) -> list[tuple[str, Callable[[int], str]]]:
    """The criteria selected by full name or by number, in suite order; all
    of them when ``names`` is None.  Each name is stripped and blank ones
    are dropped.  A name that selects none, or a list that names no
    criterion, raises UnknownCriteriaError."""
    if names is None:
        return list(CRITERIA)
    names = [n for n in map(str.strip, names) if n]
    if not names:
        raise UnknownCriteriaError("no criterion named")
    known = {n for name, _ in CRITERIA for n in (name, name.split("-")[0])}
    unknown = [n for n in names if n not in known]
    if unknown:
        raise UnknownCriteriaError(f"unknown criteria: {', '.join(unknown)}")
    return [(name, func) for name, func in CRITERIA if {name, name.split("-")[0]} & set(names)]


def run_criteria(
    criteria: Iterable[tuple[str, Callable[[int], str]]],
    seed: int = 7,
    budget: float | None = None,
    emit: Callable[[str], None] | None = None,
) -> list[CriterionResult]:
    """Run the given (name, func) criteria, as select_criteria returns them,
    in order.  Once budget seconds have passed, each remaining criterion is
    skipped: emitted as SKIP, with no result, so a budget of 0 runs none."""
    results = []
    start = time.monotonic()
    for name, func in criteria:
        if budget is not None and time.monotonic() - start >= budget:
            if emit:
                emit(f"SKIP {name}: time budget exceeded")
            continue
        t0 = time.monotonic()
        try:
            detail = func(seed)
            ok = True
        except Exception as exc:  # report, never hide
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        dt = time.monotonic() - t0
        results.append(CriterionResult(name, ok, detail, dt))
        if emit:
            emit(f"{'PASS' if ok else 'FAIL'} {name} ({dt:.2f}s): {detail}")
    return results
