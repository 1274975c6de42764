"""Command-line front end.

Exit codes: 0 success / verified, 2 parse error, 3 domain precondition
violated, 4 mathematical verdict mismatch, 5 invalid certificate.  Output
cut short by a reader that closes the pipe early still exits 0, quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .fusion import (
    FusionElt,
    fusion_product,
    fusion_table_csv,
    fusion_table_json,
    in_level,
)
from .lie import (
    InvalidLieTypeError,
    LieType,
    OutsideAlcoveError,
    _frac_str,
    build_lie_data,
    face_data,
    lie_data_to_json,
)
from .affine import orbit_to_json, orbit_up_to_length
from .prequant import prequant_catalog, prequant_catalog_csv
from .resolution import OrbitComplex, certificate_json, verify_certificate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_VERDICT = 4
EXIT_CERT = 5


class CliParseError(ValueError):
    pass


def _parse_face(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted({int(t) for t in text.split(",") if t.strip() != ""}))
    except ValueError as exc:
        raise CliParseError(f"cannot parse face {text!r}") from exc


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if len(parts) != rank:
        raise CliParseError(f"weight {text!r} needs {rank} coordinates")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise CliParseError(f"cannot parse weight {text!r}") from exc


def _parse_point(text: str, rank: int) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if len(parts) != rank:
        raise CliParseError(f"point {text!r} needs {rank} coordinates")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliParseError(f"cannot parse point {text!r}") from exc


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_lie_info(args) -> int:
    data = build_lie_data(LieType.parse(args.group))
    if args.format == "json":
        doc = lie_data_to_json(data)
        doc["nu_table"] = [
            {
                "I": list(I),
                "nu_I": [_frac_str(x) for x in face_data(data, I).nu_I],
                "nu_I_sharp": [_frac_str(x) for x in face_data(data, I).nu_I_sharp],
                "weyl_order": face_data(data, I).weyl_order,
            }
            for I in _small_faces(data)
        ]
        _emit(args, json.dumps(doc, indent=2))
        return EXIT_OK
    lines = [f"{data.lie_type}: rank {data.rank}, dual Coxeter number h_vee = {data.dual_coxeter}"]
    lines.append("cartan matrix:")
    for row in data.cartan:
        lines.append("  " + " ".join(f"{x:3d}" for x in row))
    lines.append(f"positive roots ({len(data.positive_roots)}):")
    for r in data.positive_roots:
        lines.append(f"  {list(r.weight)}")
    lines.append(f"rho = {list(data.rho)}")
    lines.append("alcove vertices:")
    for i, v in enumerate(data.alcove_vertices):
        lines.append(f"  v{i} = ({', '.join(_frac_str(x) for x in v)})")
    lines.append("faces with |I| <= 2 (face: nu_I, nu_I_sharp, |W_I|):")
    for I in _small_faces(data):
        f = face_data(data, I)
        lines.append(
            f"  {list(I)}: nu_I=({', '.join(_frac_str(x) for x in f.nu_I)}), "
            f"nu_I#=({', '.join(_frac_str(x) for x in f.nu_I_sharp)}), |W_I|={f.weyl_order}"
        )
    _emit(args, "\n".join(lines))
    return EXIT_OK


def _small_faces(data):
    import itertools

    nodes = range(data.rank + 1)
    return [
        I
        for size in (1, 2)
        for I in itertools.combinations(nodes, size)
    ]


def cmd_fusion(args) -> int:
    data = build_lie_data(LieType.parse(args.group))
    lam = _parse_weight(args.lam, data.rank)
    mu = _parse_weight(args.mu, data.rank)
    for w in (lam, mu):
        if not in_level(data, w, args.level):
            print(f"error: {','.join(map(str, w))} is not a level-{args.level} weight", file=sys.stderr)
            return EXIT_DOMAIN
    prod = fusion_product(
        FusionElt(data, args.level, {lam: 1}), FusionElt(data, args.level, {mu: 1})
    )
    if args.format == "json":
        _emit(args, json.dumps(
            {"type": str(data.lie_type), "k": args.level,
             "a": list(lam), "b": list(mu),
             "terms": [{"c": list(c), "N": n} for c, n in sorted(prod.terms.items())]},
            indent=2,
        ))
    else:
        _emit(args, "\n".join(f"{','.join(map(str, c))}: {n}" for c, n in sorted(prod.terms.items())) or "0")
    return EXIT_OK


def cmd_fusion_table(args) -> int:
    data = build_lie_data(LieType.parse(args.group))
    if args.level < 0:
        print("error: level must be >= 0", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "json":
        _emit(args, json.dumps(fusion_table_json(data, args.level), indent=2))
    elif args.format == "csv":
        _emit(args, fusion_table_csv(data, args.level))
    else:
        doc = fusion_table_json(data, args.level)
        lines = [f"{data.lie_type} level {args.level}: {len(doc['basis'])} generators"]
        for row in doc["constants"]:
            lines.append(
                f"  [{','.join(map(str, row['a']))}] * [{','.join(map(str, row['b']))}]"
                f" -> [{','.join(map(str, row['c']))}] : {row['N']}"
            )
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_orbit(args) -> int:
    data = build_lie_data(LieType.parse(args.group))
    J = _parse_face(args.face)
    points = orbit_up_to_length(data, J, args.trunc)
    if args.format == "json":
        _emit(args, json.dumps(
            {"group": str(data.lie_type), "J": list(J), "N": args.trunc,
             "points": orbit_to_json(points)}, indent=2))
    else:
        lines = [f"{len(points)} orbit points with length <= {args.trunc}"]
        for op in points:
            lines.append(f"  ({', '.join(_frac_str(x) for x in op.point)})  l={op.length}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_resolution(args) -> int:
    data = build_lie_data(LieType.parse(args.group))
    face = _parse_face(args.face)
    if args.trunc < 1:
        print("error: truncation must be >= 1", file=sys.stderr)
        return EXIT_DOMAIN
    report = OrbitComplex(data, face).homology_report(args.trunc)
    if args.format == "json":
        _emit(args, json.dumps(report, indent=2))
    else:
        lines = [
            f"{report['group']} J={report['J']} N={report['N']}: expected H0 = {report['H0']}"
        ]
        for deg in report["degrees"]:
            lines.append(
                f"  p={deg['p']}: dim={deg['dim']} rank_ker={deg['rank_ker']} "
                f"rank_im_above={deg['rank_im_above']} torsion={deg['torsion']} "
                f"verdict={deg['verdict']}"
            )
        lines.append("verified" if report["all_ok"] else "VERDICT MISMATCH")
        _emit(args, "\n".join(lines))
    return EXIT_OK if report["all_ok"] else EXIT_VERDICT


def cmd_contract(args) -> int:
    data = build_lie_data(LieType.parse(args.group))
    face = _parse_face(args.face)
    if not 0 < args.degree < data.rank:
        print(
            f"error: degree must be strictly between 0 and {data.rank}",
            file=sys.stderr,
        )
        return EXIT_DOMAIN
    oc = OrbitComplex(data, face)
    rng = random.Random(args.seed)
    cycle = oc.random_cycle(args.degree, args.trunc, rng, max_terms=args.samples)
    bounding = oc.contract_cycle(cycle)
    _emit(args, certificate_json(oc, cycle, bounding))
    return EXIT_OK


def cmd_verify_cert(args) -> int:
    try:
        with open(args.file) as fh:
            text = fh.read()
        result = verify_certificate(text)
    except (OSError, ValueError) as exc:
        print(f"certificate invalid: {exc}", file=sys.stderr)
        return EXIT_CERT
    print(f"certificate ok: {result['group']} J={result['J']} degree {result['degree']}")
    return EXIT_OK


def cmd_prequant(args) -> int:
    data = build_lie_data(LieType.parse(args.group))
    if args.level < 1:
        print("error: pre-quantization enumeration needs level >= 1", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "json":
        _emit(args, json.dumps(
            {"type": str(data.lie_type), "k": args.level,
             "classes": prequant_catalog(data, args.level)}, indent=2))
    elif args.format == "csv":
        _emit(args, prequant_catalog_csv(data, args.level))
    else:
        rows = prequant_catalog(data, args.level)
        lines = [f"{len(rows)} pre-quantized classes at level {args.level}"]
        for row in rows:
            lines.append(
                f"  xi=({', '.join(row['xi'])}) face={row['face']} mu={row['mu']} "
                f"|W_I|={row['weyl_order']} phases=({', '.join(row['phases'])})"
            )
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .acceptance import CRITERIA, run_criteria

    names = args.criteria.split(",") if args.criteria else None
    if names is not None:
        known = {n for n, _ in CRITERIA} | {n.split("-")[0] for n, _ in CRITERIA}
        unknown = [n for n in names if n not in known]
        if unknown:
            print(f"unknown criteria: {', '.join(unknown)}", file=sys.stderr)
            return EXIT_PARSE
    results = run_criteria(names=names, seed=args.seed, budget=args.budget, emit=print)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    default_format = os.environ.get("ALCOVE_FORMAT", "text")
    parser = argparse.ArgumentParser(
        prog="alcove",
        description="Exact fusion rings, affine Weyl orbits, and pre-quantized conjugacy classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default=default_format if default_format in formats else "text")
        p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("lie-info", help="root system, alcove and face data")
    p.add_argument("group")
    add_common(p)
    p.set_defaults(func=cmd_lie_info)

    p = sub.add_parser("fusion", help="fusion product of two level-k weights")
    p.add_argument("group")
    p.add_argument("--level", "-k", type=int, required=True)
    p.add_argument("lam", metavar="LAMBDA", help="comma-separated weight coordinates")
    p.add_argument("mu", metavar="MU")
    add_common(p)
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("fusion-table", help="all structure constants at level k")
    p.add_argument("group")
    p.add_argument("--level", "-k", type=int, required=True)
    add_common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_fusion_table)

    p = sub.add_parser("orbit", help="affine Weyl orbit points up to a length bound")
    p.add_argument("group")
    p.add_argument("--face", "-J", required=True, help="comma-separated node indices")
    p.add_argument("--trunc", "-N", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("resolution", help="homology verdicts of the truncated complex")
    p.add_argument("group")
    p.add_argument("--face", "-J", required=True)
    p.add_argument("--trunc", "-N", type=int, required=True)
    p.add_argument("--level", "-k", type=int, default=0, help="accepted for symmetry; the complex does not depend on it")
    add_common(p)
    p.set_defaults(func=cmd_resolution)

    p = sub.add_parser("contract", help="emit a certified cycle-contraction certificate")
    p.add_argument("group")
    p.add_argument("--face", "-J", required=True)
    p.add_argument("--trunc", "-N", type=int, required=True)
    p.add_argument("--degree", "-p", type=int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=4, help="kernel vectors mixed into the cycle")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("verify-cert", help="re-check a contraction certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("prequant", help="catalog of pre-quantized conjugacy classes")
    p.add_argument("group")
    p.add_argument("--level", "-k", type=int, required=True)
    add_common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_prequant)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", default=None, help="comma-separated criterion names or numbers")
    p.add_argument("--budget", type=float, default=None, help="time budget in seconds")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early: send what is still buffered to devnull,
        # so that the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (InvalidLieTypeError, CliParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OutsideAlcoveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
