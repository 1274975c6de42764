"""The benchmark's workloads: inputs made from a seed, the operations that
are timed, and the checks on every output.

A workload is planned once per run (plain data only, so every round replays
the same inputs) and then executed by rounds, each against a freshly
imported library.  An operation is a pair of callables: ``work(lib)`` is the
timed part and returns an output, ``check(output)`` raises CheckFailed (or
anything else) on a wrong output and returns how many units of work the
output holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

DIGESTS = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    job: str
    work: Callable[[Any], Any]
    check: Callable[[Any], int]


@dataclass
class Workload:
    name: str
    cache: str  # "cold": every job meets empty caches; "warm": one session
    unit: str  # what check() counts
    types: tuple[str, ...]  # root data built during set-up
    plan: Callable[[Any, int], Any]  # (lib, seed) -> plain-data plan
    ops: Callable[[Any], list[Op]]  # plan -> a round's operations


# ---------------------------------------------------------------------------
# CLI workloads: fixed job lists, no two jobs share a Lie type


def run_cli(lib, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_digest(digests: dict, job: str, code: int, stdout: str, stderr: str) -> None:
    require(code == 0, f"{job}: exit {code}: {stderr.strip()[:200]}")
    expected = digests.get(job)
    require(expected is not None, f"{job}: no recorded digest")
    actual = hashlib.sha256(stdout.encode()).hexdigest()
    require(actual == expected, f"{job}: output digest {actual[:12]} != recorded {expected[:12]}")


def check_fusion_table(digests: dict, job: str, result) -> int:
    code, stdout, stderr = result
    check_digest(digests, job, code, stdout, stderr)
    doc = json.loads(stdout)
    zero = [0] * len(doc["basis"][0])
    unit_row = sorted((row["b"], row["c"], row["N"]) for row in doc["constants"] if row["a"] == zero)
    require(unit_row == sorted((b, b, 1) for b in doc["basis"]), f"{job}: N(0,b,c) != delta_bc")
    return len(doc["constants"])


def check_resolution(digests: dict, job: str, result) -> int:
    code, stdout, stderr = result
    check_digest(digests, job, code, stdout, stderr)
    doc = json.loads(stdout)
    require(doc["all_ok"] is True, f"{job}: verdict mismatch")
    return sum(d["dim"] for d in doc["degrees"])


def cli_ops(jobs: tuple[str, ...], check, digests: dict) -> Callable:
    def ops(plan) -> list[Op]:
        return [
            Op(job, lambda lib, job=job: run_cli(lib, job.split()),
               lambda result, job=job: check(digests, job, result))
            for job in jobs
        ]
    return ops


FUSION_JOBS = tuple(
    f"fusion-table {t} -k {k} --format json"
    for t, k in [("A2", 9), ("G2", 6), ("C3", 3), ("E6", 2), ("E7", 2)]
)
FUSION_JOBS_TINY = tuple(
    f"fusion-table {t} -k {k} --format json" for t, k in [("A1", 3), ("A2", 2), ("G2", 1)]
)
RESOLUTION_JOBS = (
    "resolution A2 -J 0,1,2 -N 7 --format json",
    "resolution G2 -J 0,1,2 -N 5 --format json",
    "resolution B3 -J 0,1,2,3 -N 3 --format json",
    "resolution A3 -J 0,1,2,3 -N 4 --format json",
    "resolution C2 -J 0,1 -N 8 --format json",
)
RESOLUTION_JOBS_TINY = (
    "resolution A1 -J 0,1 -N 3 --format json",
    "resolution A2 -J 0,1,2 -N 2 --format json",
    "resolution C2 -J 0,1 -N 2 --format json",
)


def job_types(jobs) -> tuple[str, ...]:
    return tuple(job.split()[1] for job in jobs)


# ---------------------------------------------------------------------------
# certify: a warm session of seeded cycle contractions

# (type, face, truncation, certificates per round)
CERTIFY_MIX = (
    ("A2", (0, 1, 2), 3, 40),
    ("C2", (0, 1, 2), 2, 50),
    ("G2", (0, 1, 2), 2, 40),
    ("A2", (0, 1), 3, 50),
    ("A3", (0, 1, 2, 3), 2, 10),
    ("B3", (0, 1, 2, 3), 2, 10),
)
CERTIFY_MIX_TINY = (
    ("A2", (0, 1, 2), 3, 3),
    ("G2", (0, 1, 2), 2, 2),
    ("A3", (0, 1, 2, 3), 2, 1),
)


def plan_certify(mix):
    def plan(lib, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        rank = {t: lib.lie.build_lie_data(t).rank for t, *_ in mix}
        jobs = [
            (t, J, n, rng.randint(1, rank[t] - 1), rng.randrange(2**32))
            for t, J, n, count in mix
            for _ in range(count)
        ]
        rng.shuffle(jobs)
        return jobs
    return plan


def certify_ops(tamper: Callable[[str], str] | None = None) -> Callable:
    """``tamper`` edits each certificate before it is verified; the self-test
    uses it to show that a corrupted certificate counts as a failure."""

    def ops(plan) -> list[Op]:
        complexes: dict = {}  # one OrbitComplex per (type, face) for the session

        def work(lib, t, J, n, p, cycle_seed):
            oc = complexes.get((t, J))
            if oc is None:
                oc = complexes[(t, J)] = lib.resolution.OrbitComplex(lib.lie.build_lie_data(t), J)
            cycle = oc.random_cycle(p, n, random.Random(cycle_seed))
            bounding = oc.contract_cycle(cycle)
            text = lib.resolution.certificate_json(oc, cycle, bounding)
            if tamper is not None:
                text = tamper(text)
            return lib.resolution.verify_certificate(text)

        def check(result) -> int:
            require(result.get("ok") is True, "certificate rejected")
            return 1

        return [
            Op(f"certify {t} J={','.join(map(str, J))} N={n} p={p}",
               lambda lib, args=(t, J, n, p, s): work(lib, *args), check)
            for t, J, n, p, s in plan
        ]

    return ops


def corrupt_certificate(text: str) -> str:
    """Change the first coefficient of a nonzero cycle, so that the bounding
    chain no longer bounds it."""
    doc = json.loads(text)
    if doc["cycle"]:
        doc["cycle"][0]["coeff"] += 1
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# ring-session: a warm session of fusion-ring, induction and catalog calls

RING_TYPES = ("A1", "A2", "B2", "C2", "G2", "A3", "B3")
RING_TYPES_TINY = ("A1", "A2")
# operations per (type, level) cell; every seed gets the same mix, so the
# seed moves the arguments and the order but not the amount of work.  With
# the 21 fusion cells and 28 catalog cells this is 3017 operations: 70% ring
# homomorphism checks, 21% induction batches, 5% ideal tests and 5% catalogs.
RING_MIX = {"hom": 100, "induction": 30, "ideal": 7, "prequant": 5}
RING_MIX_TINY = {"hom": 3, "induction": 2, "ideal": 2, "prequant": 1}
FUSION_LEVELS = (1, 2, 3)
CATALOG_LEVELS = (1, 2, 3, 4)


def weight_pool(rank: int, top: dict[int, int]) -> list[tuple[int, ...]]:
    return list(itertools.product(range(top.get(rank, 1) + 1), repeat=rank))


# largest weight coordinate by rank, for the ring-homomorphism checks and for
# the ideal tests, whose numeric cross-check grows with dim V_mu
HOM_TOP = {1: 6, 2: 3}
IDEAL_TOP = {1: 4, 2: 2}


def plan_ring(types: tuple[str, ...], mix: dict[str, int]):
    def plan(lib, seed: int) -> list[tuple]:
        rng = random.Random(seed)

        def rand_char(d, top):
            return tuple((w, rng.choice((-3, -2, -1, 1, 2, 3)))
                         for w in rng.sample(weight_pool(d.rank, top), rng.randint(1, 2)))

        def in_cone(d, mu, I, k):
            return all(lib.affine.weight_wall_value(d, mu, i, k) >= 0
                       for i in range(d.rank + 1) if i not in I)

        def induction(d, k):
            I = tuple(sorted(rng.sample(range(d.rank + 1), rng.randint(2, d.rank + 1))))
            J = tuple(sorted(rng.sample(I, rng.randint(1, len(I) - 1))))
            grid = [mu for mu in itertools.product(range(-2, 4), repeat=d.rank)
                    if in_cone(d, mu, I, k)]
            terms = tuple((mu, rng.choice((-2, -1, 1, 2)))
                          for mu in rng.sample(grid, min(8, len(grid))))
            return I, J, terms

        ops = []
        for t in types:
            d = lib.lie.build_lie_data(t)
            for k in FUSION_LEVELS:
                ops += [("hom", t, k, rand_char(d, HOM_TOP), rand_char(d, HOM_TOP))
                        for _ in range(mix["hom"])]
                ops += [("induction", t, k) + induction(d, k) for _ in range(mix["induction"])]
                ops += [("ideal", t, k, rand_char(d, IDEAL_TOP), i % 2 == 0)
                        for i in range(mix["ideal"])]
            ops += [("prequant", t, k) for k in CATALOG_LEVELS for _ in range(mix["prequant"])]
        rng.shuffle(ops)
        return ops
    return plan


def ring_work(lib, op):
    kind, t = op[0], op[1]
    d = lib.lie.build_lie_data(t)
    fusion = lib.fusion
    if kind == "hom":
        _, _, k, a, b = op
        a, b = fusion.CharacterElt(d, dict(a)), fusion.CharacterElt(d, dict(b))
        lhs = fusion.quotient_map(a * b, k)
        rhs = fusion.fusion_product(fusion.quotient_map(a, k), fusion.quotient_map(b, k))
        return lhs == rhs
    if kind == "induction":
        _, _, k, I, J, terms = op
        ind = fusion.holomorphic_induction(fusion.LevelRepElt(d, I, k, dict(terms)), J)
        shifted = {tuple(x + 1 for x in mu): c for mu, c in terms}
        anti = lib.groupring.AntiInvariant(d, k + d.dual_coxeter, I, shifted)
        res = lib.groupring.reskew_to(anti, J)
        return {tuple(x - 1 for x in w): c for w, c in res.terms.items()} == ind.terms
    if kind == "ideal":
        _, _, k, chi, lifted = op
        chi = fusion.CharacterElt(d, dict(chi))
        if lifted:
            # chi minus the lift of its image lies in the fusion ideal
            chi = chi - fusion.CharacterElt(d, fusion.quotient_map(chi, k).terms)
        # ideal_membership raises if its exact and numeric verdicts disagree
        member = fusion.ideal_membership(chi, k)
        return member if lifted else True
    _, _, k = op
    rows = lib.prequant.prequant_catalog(d, k)
    labels = [tuple(row["mu"]) for row in rows]
    round_trip = all(
        lib.prequant.quantize(d, [Fraction(x) for x in row["xi"]], k) == tuple(row["mu"])
        for row in rows
    )
    return round_trip and labels == fusion.level_weights(d, k)


def ring_ops(plan) -> list[Op]:
    def check(ok) -> int:
        require(ok is True, "identity does not hold")
        return 1

    return [
        Op(" ".join(str(x) for x in op[:3]), lambda lib, op=op: ring_work(lib, op), check)
        for op in plan
    ]


# ---------------------------------------------------------------------------


def workloads(
    tiny: bool = False,
    digests: dict = DIGESTS,
    tamper: Callable[[str], str] | None = None,
) -> dict[str, Workload]:
    """The four workloads at benchmark size, or at the self-test's tiny size.
    The self-test passes wrong ``digests`` or a ``tamper`` to show that
    corrupted outputs are counted as failures."""
    fusion_jobs = FUSION_JOBS_TINY if tiny else FUSION_JOBS
    resolution_jobs = RESOLUTION_JOBS_TINY if tiny else RESOLUTION_JOBS
    mix = CERTIFY_MIX_TINY if tiny else CERTIFY_MIX
    ring_types = RING_TYPES_TINY if tiny else RING_TYPES
    ring_mix = RING_MIX_TINY if tiny else RING_MIX
    no_plan = lambda lib, seed: None  # noqa: E731 - the CLI job lists are fixed
    return {
        "fusion-tables": Workload(
            "fusion-tables", "cold", "structure_constants", job_types(fusion_jobs),
            no_plan, cli_ops(fusion_jobs, check_fusion_table, digests)),
        "resolution": Workload(
            "resolution", "cold", "basis_cells", job_types(resolution_jobs),
            no_plan, cli_ops(resolution_jobs, check_resolution, digests)),
        "certify": Workload(
            "certify", "warm", "certificates", tuple(dict.fromkeys(t for t, *_ in mix)),
            plan_certify(mix), certify_ops(tamper)),
        "ring-session": Workload(
            "ring-session", "warm", "operations", ring_types,
            plan_ring(ring_types, ring_mix), ring_ops),
    }
