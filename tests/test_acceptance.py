"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion, or `alcove selftest` for the same checks from the command line.
"""

import re
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from alcove import acceptance, fusion, groupring, lie, prequant, resolution
from alcove.acceptance import CRITERIA, UnknownCriteriaError, select_criteria
from alcove.fusion import FusionElt
from alcove.lie import CheckFailed, build_lie_data

SEED = 7


@pytest.mark.parametrize("name,func", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, func):
    t0 = time.monotonic()
    try:
        detail = func(SEED)
    except AssertionError as exc:
        print(f"FAIL {name}: {exc}")
        raise
    print(f"PASS {name} ({time.monotonic() - t0:.2f}s): {detail}")


def test_select_by_name_or_number_in_suite_order():
    picked = select_criteria(["10-lie-structural", "3", "1"])
    assert [name for name, _ in picked] == ["1-su2-closed-form", "3-ring-axioms", "10-lie-structural"]
    assert select_criteria(None) == CRITERIA
    assert select_criteria(["3", "3-ring-axioms"]) == [CRITERIA[2]]


def test_select_unknown_names_raise_in_given_order():
    # blank names are dropped, not listed as unknown
    with pytest.raises(UnknownCriteriaError, match=r"^unknown criteria: 99, ring$"):
        select_criteria(["99", "1", "ring", ""])


def test_select_strips_names_and_refuses_a_list_that_names_none():
    assert select_criteria([" 3", "", "1 "]) == [CRITERIA[0], CRITERIA[2]]
    for names in ([], [""], [" ", ""]):
        with pytest.raises(UnknownCriteriaError, match=r"^no criterion named$"):
            select_criteria(names)


# Seams for test_criterion_check_fires, which empties the LieData cache
# first, so that no product, table or face cached by an earlier test hides
# the fault.  Each seam corrupts one result on the path of one check and
# returns the criterion that must fail there.


def kac_walton_off_by_one(monkeypatch):
    # N_(1,),(1,)^(0,) at A1 level 1 read as 2
    kac_walton = fusion._kac_walton

    def corrupt(data, k, l, m):
        terms = kac_walton(data, k, l, m)
        return {**terms, (0,): terms[(0,)] + 1} if (k, l, m) == (1, (1,), (1,)) else terms

    monkeypatch.setattr(fusion, "_kac_walton", corrupt)
    return acceptance.criterion_2_exact_numeric_agreement


def unit_squared_twice(monkeypatch):
    kac_walton = fusion._kac_walton

    def corrupt(data, k, l, m):
        terms = kac_walton(data, k, l, m)
        return {(0, 0): 2} if l == m == (0, 0) else terms

    monkeypatch.setattr(fusion, "_kac_walton", corrupt)
    return acceptance.criterion_3_ring_axioms


def a2_fundamental_top_weight_doubled(monkeypatch):
    # fusion_product reduces over the weights of the smaller factor, so
    # only the reduction over the weights of V_(1,0) sees the fault
    weights = fusion._weight_multiplicities

    def corrupt(data, mu):
        out = weights(data, mu)
        if str(data.lie_type) == "A2" and mu == (1, 0):
            out = dict(out)
            out[next(iter(out))] += 1
        return out

    monkeypatch.setattr(fusion, "_weight_multiplicities", corrupt)
    monkeypatch.setattr(acceptance, "_weight_multiplicities", corrupt)
    return acceptance.criterion_3_ring_axioms


def product_off_for_sums(monkeypatch):
    # a left factor of one term, as in every pair product, is left alone
    product = acceptance.fusion_product

    def corrupt(a, b):
        out = product(a, b)
        return out + FusionElt(a.data, a.k, {min(out.terms): 1}) if len(a.terms) >= 2 else out

    monkeypatch.setattr(acceptance, "fusion_product", corrupt)
    return acceptance.criterion_3_ring_axioms


def quotient_sign_flipped(monkeypatch):
    # chi_0 maps to -[0] at A1 level 1, which no product of images gives
    build_lie_data("A1")._memo["quotient", 1] = {(0,): {(0,): -1}}
    return acceptance.criterion_4_quotient_ring_hom


def base_point_length_odd(monkeypatch):
    length_of = resolution.OrbitComplex.length_of
    monkeypatch.setattr(resolution.OrbitComplex, "length_of",
                        lambda self, x: length_of(self, x) or 1)
    return acceptance.criterion_5_resolution_exactness


def deform_with_d_h_sign_flipped(monkeypatch):
    # A_i = id - h d + d h in place of id - h d - d h
    deform = resolution.OrbitComplex.deform

    def corrupt(self, i, c):
        out, hc = deform(self, i, c), self.homotopy(i, c)
        return out + self.boundary(hc) + self.boundary(hc) if hc else out

    monkeypatch.setattr(resolution.OrbitComplex, "deform", corrupt)
    return acceptance.criterion_6_homotopy_machinery


def deform_all_identity(monkeypatch):
    monkeypatch.setattr(resolution.OrbitComplex, "deform_all", lambda self, c: c)
    return acceptance.criterion_6_homotopy_machinery


def induction_doubled_off_its_face(monkeypatch):
    induction = acceptance.holomorphic_induction

    def corrupt(phi, J):
        out = induction(phi, J)
        return out if tuple(J) == phi.I else out + out

    monkeypatch.setattr(acceptance, "holomorphic_induction", corrupt)
    return acceptance.criterion_7_induction_coherence


def reskew_drops_a_term(monkeypatch):
    reskew_to = groupring.reskew_to

    def corrupt(anti, J):
        out = reskew_to(anti, J)
        return type(out)._trusted(dict([*out.terms.items()][1:]), out.data, out.level, out.I)

    monkeypatch.setattr(acceptance, "reskew_to", corrupt)
    return acceptance.criterion_7_induction_coherence


def a_class_lost(monkeypatch):
    classes = acceptance.enumerate_prequantized
    monkeypatch.setattr(acceptance, "enumerate_prequantized", lambda d, k: classes(d, k)[1:])
    return acceptance.criterion_8_prequantization


def b_sharp_of_the_reversed_weight(monkeypatch):
    b_sharp = acceptance.b_sharp
    monkeypatch.setattr(acceptance, "b_sharp", lambda d, mu: b_sharp(d, mu[::-1]))
    return acceptance.criterion_8_prequantization


def extension_test_negated_at_level_3(monkeypatch):
    trivial = acceptance.extension_power_trivial
    monkeypatch.setattr(acceptance, "extension_power_trivial",
                        lambda d, xi, I, k: trivial(d, xi, I, k) != (k == 3))
    return acceptance.criterion_8_prequantization


def spinc_phase_off_on_edges(monkeypatch):
    phase = prequant.spinc_phase
    monkeypatch.setattr(prequant, "spinc_phase",
                        lambda d, I, lam: phase(d, I, lam) + (F(1, 2) if len(I) == 2 else 0))
    return acceptance.criterion_9_phase_identities


def with_a1_changed(monkeypatch, **changes):
    # criterion 10 builds A1 first; changes are functions of its LieData
    build = acceptance.build_lie_data

    def corrupt(name):
        d = build(name)
        if name != "A1":
            return d
        return replace(d, **{field: change(d) for field, change in changes.items()}, _memo={})

    monkeypatch.setattr(acceptance, "build_lie_data", corrupt)
    return acceptance.criterion_10_lie_structural


def coroot_gram_halved(monkeypatch):
    def halved(d):
        G, denom = d.gram_coroot_scaled
        return G, 2 * denom

    return with_a1_changed(monkeypatch, gram_coroot_scaled=halved)


def root_half_norm_doubled(monkeypatch):
    return with_a1_changed(monkeypatch, positive_roots=lambda d: tuple(
        r._replace(half_norm=2 * r.half_norm) for r in d.positive_roots))


def wall_values_without_level(monkeypatch):
    walls = acceptance._weight_walls
    monkeypatch.setattr(acceptance, "_weight_walls", lambda d, mu, m: walls(d, mu, 0))
    return acceptance.criterion_10_lie_structural


H0_REPORT = (
    "{'group': 'A1', 'J': [0, 1], 'N': 4, 'degrees': ["
    "{'p': 0, 'dim': 10, 'rank_ker': 10, 'rank_im_above': 9, 'torsion': [], 'verdict': 'H0!=Z'}, "
    "{'p': 1, 'dim': 9, 'rank_ker': 0, 'rank_im_above': 0, 'torsion': [], 'verdict': 'injective'}], "
    "'H0': 'Z', 'all_ok': False}"
)


@pytest.mark.parametrize("seam, message", [
    (kac_walton_off_by_one, "A1 k=1: (1,) * (1,) is off at t_(0,)"),
    (unit_squared_twice, "A2 k=2: the unit does not fix (0, 0)"),
    (a2_fundamental_top_weight_doubled, "A2 k=2: (0, 0) * (1, 0) is not commutative"),
    (product_off_for_sums, "A2 k=2: the product of (0, 1), (0, 1) and (0, 0) is not associative"),
    (quotient_sign_flipped, "A1 k=1: the quotient map fails on {(0,): 1}, {(4,): -3}"),
    (base_point_length_odd, f"A1 J=(0, 1): a homology verdict fails: {H0_REPORT}"),
    (deform_with_d_h_sign_flipped, "A2: A_0 does not commute with d at ((0, 1), (-3, -1))"),
    (deform_all_identity, "A2: A does not lower the length of ((0, 1), (-3, -1))"),
    (induction_doubled_off_its_face, "A2: induction from (0, 1, 2) to (0,) through (0, 1) fails at (-2, -2)"),
    (reskew_drops_a_term, "A2: induction (0,) -> (0,) is not the re-skew at (0, 0)"),
    (a_class_lost, "A1 k=1: labels are not the level weights"),
    (b_sharp_of_the_reversed_weight, "A2 k=1: (0, 1) does not quantize back"),
    (extension_test_negated_at_level_3, "A1 k=3: the tests disagree at ['0']"),
    (spinc_phase_off_on_edges, "A1: dual Coxeter power fails at (0, 1)"),
    (coroot_gram_halved, "A1: the least coroot lattice norm is not 2"),
    (root_half_norm_doubled, "A1: coroot norm 2 at (1,)"),
    (wall_values_without_level, "A1 k=0: the rho-shift lemma fails at (-1,) for the face (1,)"),
], ids=["2-numeric", "3-unit", "3-commutative", "3-associative", "4-quotient", "5-h0",
        "6-deform-commutes", "6-deform-lowers", "7-induction-chain", "7-reskew", "8-labels",
        "8-quantize-back", "8-extension-test", "9-coxeter-power", "10-least-norm", "10-coroot-norm",
        "10-rho-shift-lemma"])
def test_criterion_check_fires(monkeypatch, seam, message):
    monkeypatch.setattr(lie, "_DATA_CACHE", {})
    criterion = seam(monkeypatch)
    with pytest.raises(CheckFailed, match=f"^{re.escape(message)}$"):
        criterion(SEED)
