"""Command-line front end.

Each command builds one JSON document, and ``_output`` prints it in the
chosen format: ``json.dumps(doc, indent=2)``, the one JSON encoder, which
the certificates use too; a CSV of one list of rows in the document; or the
command's text lines rendered from the same document.  ``fusion-table`` is
the exception: in each format its rows are spliced from cells rendered
once per basis weight, with the bytes that rendering its document would
give (see cmd_fusion_table).  Domain errors are raised as ValueError and
reported by ``main``.  ``main`` builds the parser of the one command that
its arguments name, not of all nine (see build_parser).

Exit codes: 0 success / verified, 2 parse error or an unwritable ``--out``
file, 3 domain precondition violated, 4 mathematical verdict mismatch or a
failed exact check of the complex (its witness on stderr), 5 invalid
certificate.  Output cut short by a reader that closes the pipe early still
exits 0, quietly.  ``main`` checks the ``--out`` file before the command
runs; when the command fails, a file that check created is removed, and a
file that was there is left as it was.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from typing import Callable, Iterable

from .fusion import FusionElt, fusion_product, fusion_table, fusion_table_json, level_weights
from .lie import (
    InvalidLieTypeError,
    _frac_str,
    build_lie_data,
    face_data,
    lie_data_to_json,
)
from .affine import orbit_up_to_length
from .prequant import prequant_catalog
from .resolution import CheckFailed, OrbitComplex, certificate_json, verify_certificate

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


def _emit(args, text: str) -> None:
    """Print text with one newline, to stdout or to the --out file.  A file
    that cannot be opened or written is a usage error."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except BrokenPipeError:
            raise  # a reader on a pipe stopped early; main handles that
        except OSError as exc:
            raise CliParseError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        print(text)


def _claim_out(path: str) -> bool:
    """Check, before the command runs, that the --out file can be opened for
    writing, without truncating a file that is there.  Returns whether the
    file was created, so that a command that fails can remove it."""
    created = not os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise CliParseError(f"cannot write {path}: {exc.strerror}") from exc
    return created


def _csv_cell(value) -> str:
    return ";".join(map(str, value)) if isinstance(value, list) else str(value)


def _output(
    args, doc: dict, text: Callable[[dict], Iterable[str]], rows: str | None = None
) -> None:
    """Print a command's document in the format the user chose: as indented
    JSON, as a CSV of the list ``doc[rows]`` (the header is the keys of its
    first row, list fields are joined by ``;``), or as the lines ``text(doc)``.
    """
    if args.format == "json":
        _emit(args, json.dumps(doc, indent=2))
    elif args.format == "csv":
        table = doc[rows]
        lines = [",".join(table[0])]
        lines += [",".join(_csv_cell(v) for v in row.values()) for row in table]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, "\n".join(text(doc)))


def _tuple_str(values) -> str:
    return f"({', '.join(values)})"


def cmd_lie_info(args) -> int:
    data = build_lie_data(args.group)
    doc = lie_data_to_json(data)
    doc["nu_table"] = []
    for size in (1, 2):
        for I in itertools.combinations(range(data.rank + 1), size):
            f = face_data(data, I)
            doc["nu_table"].append({
                "I": list(I),
                "nu_I": [_frac_str(x) for x in f.nu_I],
                "nu_I_sharp": [_frac_str(x) for x in f.nu_I_sharp],
                "weyl_order": f.weyl_order,
            })

    def text(doc):
        yield f"{doc['type']}: rank {doc['rank']}, dual Coxeter number h_vee = {doc['dual_coxeter']}"
        yield "cartan matrix:"
        for row in doc["cartan_matrix"]:
            yield "  " + " ".join(f"{x:3d}" for x in row)
        yield f"positive roots ({len(doc['positive_roots'])}):"
        for r in doc["positive_roots"]:
            yield f"  {r}"
        yield f"rho = {doc['rho']}"
        yield "alcove vertices:"
        for i, v in enumerate(doc["alcove_vertices"]):
            yield f"  v{i} = {_tuple_str(v)}"
        yield "faces with |I| <= 2 (face: nu_I, nu_I_sharp, |W_I|):"
        for f in doc["nu_table"]:
            yield (
                f"  {f['I']}: nu_I={_tuple_str(f['nu_I'])}, "
                f"nu_I#={_tuple_str(f['nu_I_sharp'])}, |W_I|={f['weyl_order']}"
            )

    _output(args, doc, text)
    return EXIT_OK


def cmd_fusion(args) -> int:
    data = build_lie_data(args.group)
    lam = _parse_weight(args.lam, data.rank)
    mu = _parse_weight(args.mu, data.rank)
    prod = fusion_product(
        FusionElt(data, args.level, {lam: 1}), FusionElt(data, args.level, {mu: 1})
    )
    doc = {"type": str(data.lie_type), "k": args.level, "a": list(lam), "b": list(mu),
           "terms": [{"c": list(c), "N": n} for c, n in sorted(prod.terms.items())]}

    def text(doc):
        return [f"{','.join(map(str, t['c']))}: {t['N']}" for t in doc["terms"]] or ["0"]

    _output(args, doc, text)
    return EXIT_OK


def cmd_fusion_table(args) -> int:
    """The JSON is the text of fusion_table_json.  CSV and text rows are
    spliced the same way: each basis weight is rendered once, as "0;1" or
    "0,1", and each row fills one row template."""
    data = build_lie_data(args.group)
    if args.format == "json":
        _emit(args, fusion_table_json(data, args.level))
        return EXIT_OK
    basis = level_weights(data, args.level)
    if args.format == "csv":
        sep, head, row = ";", "a,b,c,N", "%s,%s,%s,%d"
    else:
        sep, row = ",", "  [%s] * [%s] -> [%s] : %d"
        head = f"{data.lie_type} level {args.level}: {len(basis)} generators"
    cell = {w: sep.join(map(str, w)) for w in basis}
    lines = [head] + [
        row % (cell[a], cell[b], cell[c], n) for a, b, c, n in fusion_table(data, args.level, basis)
    ]
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_orbit(args) -> int:
    data = build_lie_data(args.group)
    J = _parse_face(args.face)
    doc = {"group": str(data.lie_type), "J": list(J), "N": args.trunc, "points": [
        {"coords": [_frac_str(c) for c in op.point], "length": op.length}
        for op in orbit_up_to_length(data, J, args.trunc)
    ]}

    def text(doc):
        yield f"{len(doc['points'])} orbit points with length <= {doc['N']}"
        for p in doc["points"]:
            yield f"  {_tuple_str(p['coords'])}  l={p['length']}"

    _output(args, doc, text)
    return EXIT_OK


def cmd_resolution(args) -> int:
    data = build_lie_data(args.group)
    face = _parse_face(args.face)
    if args.trunc < 1:
        raise ValueError("truncation must be >= 1")
    report = OrbitComplex(data, face).homology_report(args.trunc)

    def text(doc):
        yield f"{doc['group']} J={doc['J']} N={doc['N']}: expected H0 = {doc['H0']}"
        for deg in doc["degrees"]:
            yield (
                f"  p={deg['p']}: dim={deg['dim']} rank_ker={deg['rank_ker']} "
                f"rank_im_above={deg['rank_im_above']} torsion={deg['torsion']} "
                f"verdict={deg['verdict']}"
            )
        yield "verified" if doc["all_ok"] else "VERDICT MISMATCH"

    _output(args, report, text)
    return EXIT_OK if report["all_ok"] else EXIT_VERDICT


def cmd_contract(args) -> int:
    data = build_lie_data(args.group)
    face = _parse_face(args.face)
    if not 0 < args.degree < data.rank:
        raise ValueError(f"degree must be strictly between 0 and {data.rank}")
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, not {args.samples}")
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
    data = build_lie_data(args.group)

    def text(doc):
        yield f"{len(doc['classes'])} pre-quantized classes at level {doc['k']}"
        for row in doc["classes"]:
            yield (
                f"  xi={_tuple_str(row['xi'])} face={row['face']} mu={row['mu']} "
                f"|W_I|={row['weyl_order']} phases={_tuple_str(row['phases'])}"
            )

    doc = {"type": str(data.lie_type), "k": args.level,
           "classes": prequant_catalog(data, args.level)}
    _output(args, doc, text, rows="classes")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .acceptance import UnknownCriteriaError, run_criteria

    names = args.criteria.split(",") if args.criteria else None
    try:
        results = run_criteria(names=names, seed=args.seed, budget=args.budget, emit=print)
    except UnknownCriteriaError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERDICT


# the commands, in the order of the usage line and of ``alcove --help``
COMMANDS = ("lie-info", "fusion", "fusion-table", "orbit", "resolution", "contract", "verify-cert", "prequant", "selftest")


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, given a command's name, of that
    command alone.  For that command the one-command parser parses, and
    prints help, usage and errors, byte for byte as the full parser does;
    building it skips the eight other subparsers, most of the cost."""
    default_format = os.environ.get("ALCOVE_FORMAT", "text")
    parser = argparse.ArgumentParser(
        prog="alcove",
        description="Exact fusion rings, affine Weyl orbits, and pre-quantized conjugacy classes.",
    )
    # the full parser lists its choices in the usage line; one command's
    # parser names them all there too.  (A metavar on the full parser would
    # also rename the argument in its "required" and "invalid choice" errors.)
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def command(name, func, help, group=True):
        """The subparser of ``name``, or None when only another is built."""
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if group:
            p.add_argument("group")
        return p

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default=default_format if default_format in formats else "text")
        p.add_argument("--out", metavar="FILE", default=None)

    if p := command("lie-info", cmd_lie_info, "root system, alcove and face data"):
        add_common(p)

    if p := command("fusion", cmd_fusion, "fusion product of two level-k weights"):
        p.add_argument("--level", "-k", type=int, required=True)
        p.add_argument("lam", metavar="LAMBDA", help="comma-separated weight coordinates")
        p.add_argument("mu", metavar="MU")
        add_common(p)

    if p := command("fusion-table", cmd_fusion_table, "all structure constants at level k"):
        p.add_argument("--level", "-k", type=int, required=True)
        add_common(p, formats=("text", "json", "csv"))

    if p := command("orbit", cmd_orbit, "affine Weyl orbit points up to a length bound"):
        p.add_argument("--face", "-J", required=True, help="comma-separated node indices")
        p.add_argument("--trunc", "-N", type=int, required=True)
        add_common(p)

    if p := command("resolution", cmd_resolution, "homology verdicts of the truncated complex"):
        p.add_argument("--face", "-J", required=True)
        p.add_argument("--trunc", "-N", type=int, required=True)
        p.add_argument("--level", "-k", type=int, default=0, help="accepted for symmetry; the complex does not depend on it")
        add_common(p)

    if p := command("contract", cmd_contract, "emit a certified cycle-contraction certificate"):
        p.add_argument("--face", "-J", required=True)
        p.add_argument("--trunc", "-N", type=int, required=True)
        p.add_argument("--degree", "-p", type=int, default=1)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--samples", type=int, default=4, help="kernel vectors mixed into the cycle")
        p.add_argument("--out", metavar="FILE", default=None)

    if p := command("verify-cert", cmd_verify_cert, "re-check a contraction certificate", group=False):
        p.add_argument("file")

    if p := command("prequant", cmd_prequant, "catalog of pre-quantized conjugacy classes"):
        p.add_argument("--level", "-k", type=int, required=True)
        add_common(p, formats=("text", "json", "csv"))

    if p := command("selftest", cmd_selftest, "run the acceptance criteria", group=False):
        p.add_argument("--criteria", default=None, help="comma-separated criterion names or numbers")
        p.add_argument("--budget", type=float, default=None, help="time budget in seconds")
        p.add_argument("--seed", type=int, default=7)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first argument is the command whenever it names one
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    out = getattr(args, "out", None)
    created = False
    try:
        created = bool(out) and _claim_out(out)
        code = args.func(args)
        created = False  # the command has written its output
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
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        if created:  # the command failed before it wrote the file
            os.remove(out)


if __name__ == "__main__":
    sys.exit(main())
