import dataclasses
import hashlib
import inspect
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from alcove import prequant
from alcove.acceptance import run_criteria, select_criteria
from alcove.fusion import in_level, level_weights
from alcove.lie import (
    CheckFailed,
    OutsideAlcoveError,
    _frac_str,
    alcove_face_of,
    b_flat,
    b_sharp,
    basic_pairing,
    build_lie_data,
    face_data,
)
from alcove.prequant import (
    ConjClass,
    _check_integral,
    coxeter_power_identity_check,
    enumerate_prequantized,
    extension_power_trivial,
    phase,
    prequant_catalog,
    prequantizable,
    quantize,
    spinc_phase,
)

RANK_LE_2 = ["A1", "A2", "B2", "C2", "G2"]
RANK_LE_4 = RANK_LE_2 + ["A3", "A4", "B3", "B4", "C3", "C4", "D4", "F4"]


def central_phase(data, xi, lam):
    """Phase of the holonomy homomorphism of exp(xi) on a lattice vector:
    B(xi, lam) mod 1; moved from alcove.prequant with its body unchanged,
    used only here."""
    lam = _check_integral(data, lam)
    return phase(basic_pairing(data, xi, lam))


def alcove_grid(data, max_den):
    """All alcove points with coordinate denominators dividing max_den."""
    bound = max(max(v) for v in data.alcove_vertices) + 1
    rng = [F(n, max_den) for n in range(0, int(bound * max_den) + 1)]
    for coords in itertools.product(rng, repeat=data.rank):
        try:
            alcove_face_of(data, coords)
        except OutsideAlcoveError:
            continue
        yield coords


# -- pre-quantization ------------------------------------------------------------

def test_prequantizable_examples():
    d = build_lie_data("A1")
    assert prequantizable(d, (F(1, 4),), 2)
    assert not prequantizable(d, (F(1, 4),), 1)
    assert prequantizable(d, (F(0),), 5)


def test_prequantizable_outside_alcove():
    d = build_lie_data("A1")
    with pytest.raises(OutsideAlcoveError):
        prequantizable(d, (F(2, 1),), 1)


def test_quantize_examples():
    d = build_lie_data("A1")
    assert quantize(d, (F(1, 4),), 2) == (1,)
    assert quantize(d, (F(0),), 3) == (0,)
    a2 = build_lie_data("A2")
    xi = b_sharp(a2, (1, 0))
    assert quantize(a2, xi, 1) == (1, 0)


def test_quantize_rejects_unquantizable():
    d = build_lie_data("A1")
    with pytest.raises(ValueError):
        quantize(d, (F(1, 4),), 1)
    with pytest.raises(ValueError):
        quantize(d, (F(0),), 0)


def test_enumerate_examples():
    d = build_lie_data("A1")
    classes = enumerate_prequantized(d, 2)
    assert [c.xi for c in classes] == [(F(0),), (F(1, 4),), (F(1, 2),)]
    with pytest.raises(ValueError):
        enumerate_prequantized(d, 0)


@pytest.mark.parametrize("name", RANK_LE_2)
def test_enumerate_bijects_with_level_weights(name):
    d = build_lie_data(name)
    for k in (1, 2, 3, 4):
        classes = enumerate_prequantized(d, k)
        labels = [quantize(d, c.xi, k) for c in classes]
        assert labels == level_weights(d, k)
        assert len(set(c.xi for c in classes)) == len(classes)


# -- phases -------------------------------------------------------------------------

def test_central_phase_examples():
    d = build_lie_data("A1")
    assert central_phase(d, (F(1, 4),), (1,)) == F(1, 2)
    assert central_phase(d, (F(0),), (1,)) == 0


def test_central_phase_additive():
    d = build_lie_data("B2")
    xi = (F(1, 3), F(1, 6))
    lam1, lam2 = (1, 0), (2, -1)
    total = (3, -1)
    assert phase(
        central_phase(d, xi, lam1) + central_phase(d, xi, lam2)
    ) == central_phase(d, xi, total)


def test_central_phase_requires_integral():
    d = build_lie_data("A1")
    with pytest.raises(ValueError):
        central_phase(d, (F(1, 4),), (F(1, 2),))


def test_extension_power_examples():
    d = build_lie_data("A1")
    assert extension_power_trivial(d, (F(1, 4),), (0, 1), 2)
    assert not extension_power_trivial(d, (F(1, 4),), (0, 1), 1)
    assert extension_power_trivial(d, (F(0),), (0,), 17)
    with pytest.raises(ValueError):
        extension_power_trivial(d, (F(1, 4),), (0,), 1)


@pytest.mark.parametrize("name", RANK_LE_2)
def test_prequantizable_iff_extension_trivial(name):
    d = build_lie_data(name)
    for xi in alcove_grid(d, 6):
        face = alcove_face_of(d, xi)
        for k in (1, 2, 3, 4):
            assert prequantizable(d, xi, k) == extension_power_trivial(d, xi, face, k)


def test_spinc_phase_examples():
    d = build_lie_data("A1")
    assert spinc_phase(d, (0, 1), (1,)) == 0
    assert spinc_phase(d, (0,), (1,)) == 0
    assert spinc_phase(d, (0,), (5,)) == 0


@pytest.mark.parametrize("name", RANK_LE_4)
def test_spinc_phase_vanishes_on_face_lattice(name):
    from alcove.lie import face_data

    d = build_lie_data(name)
    nodes = range(d.rank + 1)
    for size in range(1, d.rank + 2):
        for I in itertools.combinations(nodes, size):
            f = face_data(d, I)
            for lam in f.coroot_lattice_basis:
                assert spinc_phase(d, I, lam) == 0


@pytest.mark.parametrize("name", RANK_LE_4)
def test_coxeter_power_identity(name):
    d = build_lie_data(name)
    nodes = range(d.rank + 1)
    for size in range(1, d.rank + 2):
        for I in itertools.combinations(nodes, size):
            assert coxeter_power_identity_check(d, I)


def test_coxeter_power_identity_check_reports_a_mismatch(monkeypatch):
    # a Spin_c phase off by 1/2 on every lattice vector must make the check
    # answer False, not True or an error
    original = prequant.spinc_phase
    monkeypatch.setattr(prequant, "spinc_phase", lambda data, I, lam: phase(original(data, I, lam) + F(1, 2)))
    d = build_lie_data("A2")
    for I in [(0,), (1, 2), (0, 1, 2)]:
        assert coxeter_power_identity_check(d, I) is False


def test_spinc_phase_refuses_a_vector_of_the_wrong_rank():
    d = build_lie_data("A2")
    for lam in [(1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match=r"^rank mismatch$"):
            spinc_phase(d, (0,), lam)
        with pytest.raises(ValueError, match=r"^rank mismatch$"):
            _check_integral(d, lam)


def test_catalog_rows():
    d = build_lie_data("A1")
    rows = prequant_catalog(d, 2)
    assert len(rows) == 3
    assert rows[1]["mu"] == [1]
    assert rows[1]["xi"] == ["1/4"]
    assert rows[1]["phases"] == ["1/2"]


def test_catalog_label_check_fires_off_level():
    """With the Gram matrix doubled, b_flat(k xi) of a level-1 class lands at
    level 2, which the label check refuses."""
    d = build_lie_data("A2")
    rows, den = d.gram_coroot_scaled
    doubled = dataclasses.replace(
        d, gram_coroot_scaled=(tuple(tuple(2 * x for x in row) for row in rows), den), _memo={})
    with pytest.raises(CheckFailed, match=r"^pre-quantization label \(0, 2\) is not at level 1$"):
        prequant_catalog(doubled, 1)


def test_prequant_a12_level_3_lists_its_455_classes_in_seconds():
    # 455 weights in a search box of 4^12 points: a filter over the box took
    # over 20 s, so the command runs in a child process that a timeout ends
    proc = subprocess.run(
        [sys.executable, "-m", "alcove", "prequant", "A12", "-k", "3", "--format", "json"],
        capture_output=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    assert len(json.loads(proc.stdout)["classes"]) == 455
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "62a67399545abf905ea502e6c5eb52150c264705791a612a2d72eb6b63abc808")


# -- the integer route against the Fraction route it replaced --------------------

# Oracles, bodies as they stood before pre-quantization moved onto integer
# numerators: the Fraction test, quantization, enumeration and catalog.


def fraction_prequantizable(data, xi, k):
    xi = tuple(F(x) for x in xi)
    alcove_face_of(data, xi)  # raises if outside the closed alcove
    if k < 0:
        raise ValueError("level must be >= 0")
    return all((k * x).denominator == 1 for x in b_flat(data, xi))


def fraction_quantize(data, xi, k):
    if k < 1:
        raise ValueError("quantization needs level >= 1")
    if not fraction_prequantizable(data, xi, k):
        raise ValueError(f"class at {tuple(xi)} is not pre-quantizable at level {k}")
    mu = tuple(int(k * x) for x in b_flat(data, xi))
    assert in_level(data, mu, k)
    return mu


def fraction_enumerate(data, k):
    if k < 1:
        raise ValueError("level must be >= 1")
    out = []
    for mu in level_weights(data, k):
        xi = tuple(x / k for x in b_sharp(data, mu))
        out.append(ConjClass(xi, alcove_face_of(data, xi)))
    return out


def fraction_catalog(data, k):
    rows = []
    for cc in fraction_enumerate(data, k):
        mu = fraction_quantize(data, cc.xi, k)
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


CATALOG_CASES = [
    (name, k)
    for names, top in [
        (["A1"], 8),
        (["A2"], 6),
        (["B2", "C2", "G2"], 5),
        (["A3", "B3"], 4),
        (["C3", "D4"], 3),
        (["F4", "E6", "A4", "B4"], 2),
    ]
    for name in names
    for k in range(1, top + 1)
]


@pytest.mark.parametrize("name,k", CATALOG_CASES)
def test_catalog_matches_fraction_route(name, k):
    d = build_lie_data(name)
    rows = prequant_catalog(d, k)
    assert json.dumps(rows, indent=2) == json.dumps(fraction_catalog(d, k), indent=2)
    classes = enumerate_prequantized(d, k)
    assert classes == fraction_enumerate(d, k)
    assert all(isinstance(c, ConjClass) for c in classes)
    for row in rows:
        xi = [F(x) for x in row["xi"]]
        assert quantize(d, xi, k) == fraction_quantize(d, xi, k) == tuple(row["mu"])


def outcome(fn, *args):
    """The result of a call, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)


QUANTIZE_TYPES = ["A1", "A2", "B2", "G2", "A3"]


@pytest.mark.parametrize("name", QUANTIZE_TYPES)
def test_quantize_errors_match_fraction_route(name):
    """Same value or same exception type as the Fraction route, on a rank
    mismatch, a point outside the alcove, an unquantizable point and k < 1,
    and on a grid of points and levels around them."""
    d = build_lie_data(name)
    inside = [c.xi for c in fraction_enumerate(d, 3)]
    cases = [
        inside[0] + (F(0),),  # rank mismatch
        inside[-1][:-1],
        (F(-1, 2),) + inside[0][1:],  # outside: wall i >= 1
        tuple(F(2) for _ in range(d.rank)),  # outside: wall 0
        tuple(F(1, 7) * x for x in inside[-1]),  # pre-quantizable only at some levels
    ] + inside
    for xi in cases:
        for k in (-1, 0, 1, 2, 3, 5, 7):
            expected = outcome(fraction_quantize, d, xi, k)
            assert outcome(quantize, d, xi, k) == expected, (xi, k)
            assert outcome(prequantizable, d, xi, k) == outcome(
                fraction_prequantizable, d, xi, k
            ), (xi, k)
    with pytest.raises(ValueError):
        quantize(d, inside[0] + (F(0),), 1)
    with pytest.raises(OutsideAlcoveError):
        quantize(d, tuple(F(2) for _ in range(d.rank)), 1)


def test_outside_alcove_error_carries_the_fraction_wall_value():
    d = build_lie_data("A2")
    xi = (F(5, 6), F(1, 2))
    with pytest.raises(OutsideAlcoveError) as new:
        quantize(d, xi, 2)
    with pytest.raises(OutsideAlcoveError) as old:
        fraction_quantize(d, xi, 2)
    assert (new.value.wall, new.value.value, str(new.value)) == (
        old.value.wall, old.value.value, str(old.value))


def test_criterion_8_catches_an_off_by_one_divisibility_check(monkeypatch):
    """Criterion 8 compares prequantizable, which runs the integer helper,
    with extension_power_trivial, which runs its own Fraction phases; a
    divisibility check that tests against one more than the denominator
    must fail it."""
    assert run_criteria(select_criteria(["8"]))[0].ok
    source = inspect.getsource(prequant._prequant_scaled)
    assert source.count("x % den") == 1
    namespace = dict(vars(prequant))
    exec(source.replace("x % den", "x % (den + 1)"), namespace)
    monkeypatch.setattr(prequant, "_prequant_scaled", namespace["_prequant_scaled"])
    (result,) = run_criteria(select_criteria(["8"]))
    assert not result.ok
    # the second route alone tells the mutant apart on the criterion's grid
    d = build_lie_data("A2")
    assert any(
        prequant.prequantizable(d, xi, k) != extension_power_trivial(d, xi, alcove_face_of(d, xi), k)
        for xi in alcove_grid(d, 6)
        for k in (1, 2, 3, 4)
    )
