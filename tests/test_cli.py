import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from alcove.cli import COMMANDS, build_parser, main
from alcove.fusion import fusion_table, level_weights
from alcove.lie import build_lie_data
from alcove.resolution import ChainElt, CheckFailed, OrbitComplex

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lie_info_text(capsys):
    code, out, _ = run(capsys, "lie-info", "A2")
    assert code == 0
    assert "h_vee = 3" in out


def test_lie_info_invalid_type(capsys):
    code, _, err = run(capsys, "lie-info", "X9")
    assert code == 2
    assert "X9" in err


def test_lie_info_json(capsys):
    code, out, _ = run(capsys, "lie-info", "G2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dual_coxeter"] == 4
    assert doc["type"] == "G2"
    assert any(entry["I"] == [0] for entry in doc["nu_table"])


def test_fusion_basic(capsys):
    code, out, _ = run(capsys, "fusion", "A1", "-k", "1", "1", "1")
    assert code == 0
    assert out.strip() == "0: 1"


def test_fusion_out_of_level(capsys):
    code, _, err = run(capsys, "fusion", "A1", "-k", "2", "5", "1")
    assert code == 3
    assert "level" in err


def test_fusion_weight_checks_are_the_library_checks(capsys):
    assert run(capsys, "fusion", "A1", "-k", "2", "5", "1") == (
        3, "", "error: (5,) is not a level-2 weight\n")
    assert run(capsys, "fusion", "A2", "-k", "1", "0,0", "1,1") == (
        3, "", "error: (1, 1) is not a level-1 weight\n")
    assert run(capsys, "fusion-table", "A1", "-k", "-1") == (3, "", "error: level must be >= 0\n")


def test_fusion_bad_weight(capsys):
    code, _, _ = run(capsys, "fusion", "A1", "-k", "2", "x", "1")
    assert code == 2


def test_fusion_table_count(capsys):
    code, out, _ = run(capsys, "fusion-table", "A1", "-k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    total = sum(2 if row["a"] != row["b"] else 1 for row in doc["constants"])
    assert total == 10


# Oracle: the fusion-table document with one plain dict per row, and the
# generic CSV and text renderers that printed it before each row was spliced
# from cells rendered once per basis weight.


def dict_row_fusion_doc(data, k):
    return {
        "type": str(data.lie_type),
        "k": k,
        "basis": [list(w) for w in level_weights(data, k)],
        "constants": [
            {"a": list(a), "b": list(b), "c": list(c), "N": n}
            for a, b, c, n in fusion_table(data, k)
        ],
    }


def dict_row_csv(doc):
    def cell(value):
        return ";".join(map(str, value)) if isinstance(value, list) else str(value)

    table = doc["constants"]
    lines = [",".join(table[0])]
    lines += [",".join(cell(v) for v in row.values()) for row in table]
    return "\n".join(lines) + "\n"


def dict_row_text(doc):
    lines = [f"{doc['type']} level {doc['k']}: {len(doc['basis'])} generators"]
    for row in doc["constants"]:
        lines.append(
            f"  [{','.join(map(str, row['a']))}] * [{','.join(map(str, row['b']))}]"
            f" -> [{','.join(map(str, row['c']))}] : {row['N']}"
        )
    return "\n".join(lines) + "\n"


def fusion_oracle_cases():
    types = ("A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "D5", "G2")
    cases = random.Random(21).sample([(t, k) for t in types for k in range(5)], 20)
    # E6 at level 1: a rank-6 cell and a Z3 centre
    return sorted(cases) + [("A2", 9), ("E6", 1)]


@pytest.mark.parametrize("group, k", fusion_oracle_cases())
def test_fusion_table_matches_the_dict_row_renderers(capsys, group, k):
    doc = dict_row_fusion_doc(build_lie_data(group), k)
    expected = {
        "json": json.dumps(doc, indent=2) + "\n",
        "csv": dict_row_csv(doc),
        "text": dict_row_text(doc),
    }
    for fmt, want in expected.items():
        code, out, _ = run(capsys, "fusion-table", group, "-k", str(k), "--format", fmt)
        assert code == 0
        # the first differing line, not pytest's diff of megabyte strings
        got, exp = out.split("\n"), want.split("\n")
        assert len(got) == len(exp), (fmt, len(got), len(exp))
        assert next(((i, g, e) for i, (g, e) in enumerate(zip(got, exp)) if g != e), None) is None, fmt


def test_fusion_table_enumerates_the_basis_once(capsys, monkeypatch):
    # one level_weights call per table in every format, at every binding
    from alcove import cli, fusion

    calls = []
    original = fusion.level_weights

    def counting(data, k):
        calls.append(k)
        return original(data, k)

    for module in (cli, fusion):
        monkeypatch.setattr(module, "level_weights", counting)
    for fmt in ("json", "csv", "text"):
        calls.clear()
        code, _, _ = run(capsys, "fusion-table", "D4", "-k", "2", "--format", fmt)
        assert code == 0 and calls == [2], fmt


def test_orbit_json(capsys):
    code, out, _ = run(capsys, "orbit", "A1", "-J", "0,1", "-N", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 5


def test_resolution_full_face(capsys):
    code, out, _ = run(capsys, "resolution", "A2", "-J", "0,1,2", "-N", "3")
    assert code == 0
    assert "H0 = Z" in out


def test_resolution_vertex_face(capsys):
    code, out, _ = run(capsys, "resolution", "A1", "-J", "0", "-N", "4")
    assert code == 0
    assert "H0 = 0" in out


def test_resolution_has_no_level_option(capsys):
    # the complex does not depend on a level, so resolution takes none
    with pytest.raises(SystemExit) as exc:
        main(["resolution", "A2", "-J", "0,1,2", "-N", "3", "-k", "1"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith("error: unrecognized arguments: -k 1\n")


def test_contract_and_verify(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "contract", "A2", "-J", "0,1,2", "-N", "3",
                     "--seed", "5", "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify-cert", str(cert))
    assert code == 0
    assert "certificate ok" in out


def test_verify_cert_detects_tampering(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "contract", "A2", "-J", "0,1,2", "-N", "3", "--seed", "5",
        "--out", str(cert))
    doc = json.loads(cert.read_text())
    if doc["bounding"]:
        doc["bounding"][0]["coeff"] += 1
    else:
        doc["cycle"].append({"I": [0, 1], "x": [1, 1], "coeff": 1})
    cert.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify-cert", str(cert))
    assert code == 5
    assert "invalid" in err


def test_verify_cert_missing_file(capsys):
    code, _, _ = run(capsys, "verify-cert", "/nonexistent/cert.json")
    assert code == 5


def test_verify_cert_degree_out_of_range(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(
        {"group": "A2", "J": [0, 1, 2], "degree": 7, "cycle": [], "bounding": []}
    ))
    code, out, err = run(capsys, "verify-cert", str(cert))
    assert code == 5
    assert "certificate ok" not in out
    assert "degree 7" in err


def test_verify_cert_repeated_face_node(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(
        {"group": "A2", "J": [0, 0, 1], "degree": 1, "cycle": [], "bounding": []}
    ))
    code, out, err = run(capsys, "verify-cert", str(cert))
    assert code == 5
    assert "certificate ok" not in out
    assert "repeats a node" in err


def test_verify_cert_unsorted_chain_key(tmp_path, capsys):
    code, text, _ = run(capsys, "contract", "A2", "-J", "0,1,2", "-N", "3", "--seed", "5")
    assert code == 0
    doc = json.loads(text)
    assert doc["cycle"][0]["I"] == [0, 1]
    doc["cycle"][0]["I"] = [1, 0, 0]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-cert", str(cert))
    assert code == 5
    assert "certificate ok" not in out
    assert "not strictly increasing" in err


A2_SEED_1 = ("contract", "A2", "-J", "0,1,2", "-N", "3", "--seed", "1")
A2_SEED_5 = ("contract", "A2", "-J", "0,1,2", "-N", "3", "--seed", "5")
# the golden A3 certificate: points are numerators over D = 8, and the first
# cycle term is I = [0, 1, 2], x = [1, 4, 3]
A3_CERT = ("contract", "A3", "-J", "0,1,2,3", "-N", "2", "-p", "2", "--seed", "1")
TERM_TYPES = "a chain term needs integer nodes I, integer numerators x and an integer coeff"
FIELD_TYPES = "group must be a string, J a list of integers and degree an integer"


def a3_first_cycle_point(doc):
    assert doc["D"] == 8 and doc["cycle"][0]["I"] == [0, 1, 2] and doc["cycle"][0]["x"] == [1, 4, 3]
    return doc["cycle"][0]["x"]


@pytest.mark.parametrize("source, edit, message", [
    # 'p/q' strings, not numerators
    (A2_SEED_5, lambda doc: doc["cycle"][0]["x"].__setitem__(0, "1/7"), f"malformed certificate: {TERM_TYPES}"),
    (A2_SEED_5, lambda doc: doc["cycle"][0]["x"].__setitem__(1, "1/0"), f"malformed certificate: {TERM_TYPES}"),
    (A2_SEED_5, lambda doc: doc["cycle"][0]["x"].append(0),
     "certificate key [0, 1], x = [-1, 0, 0] has 3 coordinates, not 2"),
    (A2_SEED_5, lambda doc: doc["cycle"][0].__setitem__("I", [0, 3]),
     "certificate key [0, 3] has a node outside 0..2"),
    # translated by 10**6 times the coroot of node 3: on the orbit and
    # interior to its cone, but far above CERT_MAX_LENGTH
    (A3_CERT, lambda doc: a3_first_cycle_point(doc).__setitem__(2, 8000003),
     "certificate key [0, 1, 2], x = [1, 4, 8000003] has length 6000001, above the limit 10000"),
    # the coroot-lattice point (0, 0, 1): interior to its cone, but on the
    # orbit of the origin
    (A3_CERT, lambda doc: a3_first_cycle_point(doc).__setitem__(slice(None), [0, 0, 8]),
     "certificate key [0, 1, 2], x = [0, 0, 8] is not on the orbit of [0, 1, 2, 3]"),
], ids=["off-lattice", "zero-denominator", "coordinate-count", "node-out-of-range",
        "a3-far", "a3-off-orbit"])
def test_verify_cert_rejects_malformed_points(tmp_path, capsys, source, edit, message):
    code, text, _ = run(capsys, *source)
    assert code == 0
    doc = json.loads(text)
    edit(doc)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    assert run(capsys, "verify-cert", str(cert)) == (5, "", f"certificate invalid: {message}\n")


def coeffs_off_by_0_4(doc):
    for chain in ("cycle", "bounding"):
        for item in doc[chain]:
            item["coeff"] += 0.4 if item["coeff"] > 0 else -0.4
    return json.dumps(doc)


@pytest.mark.parametrize("source, make, message", [
    # the reported reproduction: fractional coefficients, J and degree not integers
    (A2_SEED_1, lambda doc: coeffs_off_by_0_4({**doc, "J": [0.0, 1.9, 2.2], "degree": "1"}), FIELD_TYPES),
    (A2_SEED_1, lambda doc: json.dumps({**doc, "J": "012"}), FIELD_TYPES),
    (A2_SEED_1, lambda doc: json.dumps({**doc, "group": 5}), FIELD_TYPES),
    (A2_SEED_1, lambda doc: "[" * 100_000, "maximum recursion depth exceeded"),
    (A3_CERT, coeffs_off_by_0_4, TERM_TYPES),
    (A3_CERT, lambda doc: json.dumps({**doc, "D": 16}),
     "D must be 8, the denominator of the orbit of [0, 1, 2, 3]"),
], ids=["fractional-coeffs", "string-face", "integer-group", "deep-nesting",
        "a3-fractional-coeffs", "a3-wrong-D"])
def test_verify_cert_malformed_fields_exit_5(tmp_path, capsys, source, make, message):
    code, text, _ = run(capsys, *source)
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(make(json.loads(text)))
    code, out, err = run(capsys, "verify-cert", str(cert))
    assert (code, out) == (5, "")
    assert err.startswith(f"certificate invalid: malformed certificate: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_verify_cert_far_point_exits_5(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "group": "A2", "J": [0, 1, 2], "degree": 1, "D": 3, "bounding": [],
        "cycle": [{"I": [0, 1], "x": [1, 300000001], "coeff": 1}],
    }))
    code, out, err = run(capsys, "verify-cert", str(cert))
    assert code == 5
    assert out == ""
    assert err == (
        "certificate invalid: certificate key [0, 1], x = [1, 300000001] "
        "has length 400000000, above the limit 10000\n"
    )


def test_verify_cert_rank_above_the_bound_exits_5(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"group": "A21", "J": [0, 1], "degree": 1, "cycle": [], "bounding": []}))
    code, out, err = run(capsys, "verify-cert", str(cert))
    assert (code, out) == (5, "")
    assert err == "certificate invalid: malformed certificate: group A21 has rank 21, above the limit 20\n"


def test_verify_cert_zero_denominator_message(tmp_path, capsys):
    code, text, _ = run(capsys, "contract", "A2", "-J", "0,1,2", "-N", "3", "--seed", "5")
    assert code == 0
    doc = json.loads(text)
    doc["cycle"][0]["x"][1] = "1/0"
    assert doc["D"] == 3
    assert doc["cycle"][0]["I"] == [0, 1] and doc["cycle"][0]["x"] == [-1, "1/0"]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-cert", str(cert))
    assert code == 5
    assert out == ""
    assert err == (
        "certificate invalid: malformed certificate: a chain term needs integer nodes I, "
        "integer numerators x and an integer coeff\n"
    )


def test_verify_cert_echoes_canonical_face(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(
        {"group": "A2", "J": [2, 1], "degree": 1, "D": 2, "cycle": [], "bounding": []}
    ))
    code, out, _ = run(capsys, "verify-cert", str(cert))
    assert code == 0
    assert out.strip() == "certificate ok: A2 J=[1, 2] degree 1"


@pytest.mark.parametrize("argv", [
    ["orbit", "A2", "-J", "0,1,2", "-N", "8"],  # fails inside the command
    ["fusion", "A1", "-k", "1", "1", "1"],  # buffered until the final flush
    ["lie-info", "A2", "--out", "/dev/stdout"],  # not an unwritable --out
])
def test_closed_pipe_exits_quietly(argv):
    # the reader is gone before the command starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "alcove.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == 0


@pytest.mark.parametrize("argv,message", [
    (["fusion", "A1", "-k", "-1", "0", "0"], "error: level must be >= 0\n"),
    (["contract", "A2", "-J", "0,1,2", "-N", "3", "--samples", "-1"],
     "error: --samples must be >= 0, not -1\n"),
    (["selftest", "--criteria", "1", "--budget", "-1"], "error: --budget must be >= 0, not -1.0\n"),
    (["selftest", "--criteria", "1", "--budget", "nan"], "error: --budget must be >= 0, not nan\n"),
])
def test_negative_level_and_samples_exit_3(capsys, argv, message):
    assert run(capsys, *argv) == (3, "", message)
    proc = subprocess.run(
        [sys.executable, "-m", "alcove", *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)


HUGE_LEVEL = "99999999999999999999"  # above sys.maxsize


@pytest.mark.parametrize("command,group", [("fusion-table", "A1"), ("prequant", "B2")])
def test_level_too_large_to_list_its_weights_exits_3(capsys, command, group):
    assert run(capsys, command, group, "-k", HUGE_LEVEL) == (
        3, "", f"error: level {HUGE_LEVEL} is too large to list its weights\n")


def test_fusion_at_a_huge_level_lists_no_weights(capsys):
    assert run(capsys, "fusion", "A1", "-k", HUGE_LEVEL, "1", "1") == (0, "0: 1\n2: 1\n", "")


def test_prequant_rows(capsys):
    code, out, _ = run(capsys, "prequant", "A1", "-k", "2", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 3


def test_prequant_rejects_level_zero(capsys):
    code, _, _ = run(capsys, "prequant", "A1", "-k", "0")
    assert code == 3


def test_prequant_level_zero_message(capsys):
    code, out, err = run(capsys, "prequant", "A1", "-k", "0")
    assert (code, out, err) == (3, "", "error: pre-quantized classes need level >= 1\n")


def test_prequant_csv_header_and_rows(capsys):
    code, out, _ = run(capsys, "prequant", "C2", "-k", "1", "--format", "csv")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0] == "xi,face,mu,weyl_order,phases"
    assert len(lines) == 1 + 3


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--criteria", "1,3")
    assert code == 0
    assert "PASS 1-su2-closed-form" in out
    assert "PASS 3-ring-axioms" in out


@pytest.mark.parametrize("criteria", ["1", "1,2"])
def test_selftest_that_skips_a_criterion_exits_4(capsys, criteria):
    # a budget of 0 runs no criterion, and a criterion that did not run
    # did not pass
    code, out, err = run(capsys, "selftest", "--criteria", criteria, "--budget", "0")
    assert (code, err) == (4, "")
    names = ["1-su2-closed-form", "2-exact-numeric-agreement"][: len(criteria.split(","))]
    assert out == "".join(f"SKIP {name}: time budget exceeded\n" for name in names)


def test_selftest_unknown_selection(capsys):
    code, _, _ = run(capsys, "selftest", "--criteria", "nope")
    assert code == 2


def test_selftest_unknown_names_listed_and_nothing_run(capsys):
    code, out, err = run(capsys, "selftest", "--criteria", "1,99,foo")
    assert code == 2
    assert out == ""
    assert err == "error: --criteria '1,99,foo': unknown criteria: 99, foo\n"
    assert run(capsys, "selftest", "--criteria", "0") == (
        2, "", "error: --criteria '0': unknown criteria: 0\n")


@pytest.mark.parametrize("criteria", [" 1", "1,", ",1, "])
def test_selftest_names_are_stripped_and_blank_ones_dropped(capsys, criteria):
    code, out, err = run(capsys, "selftest", "--criteria", criteria)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 and out.startswith("PASS 1-su2-closed-form ")


@pytest.mark.parametrize("criteria", [",", " , ", ""])
def test_selftest_list_that_names_no_criterion_exits_2(capsys, criteria):
    code, out, err = run(capsys, "selftest", "--criteria", criteria)
    assert (code, out, err) == (2, "", f"error: --criteria {criteria!r}: no criterion named\n")


@pytest.mark.parametrize("trunc", ["0", "-1"])
def test_resolution_truncation_below_1_exits_3(capsys, trunc):
    assert run(capsys, "resolution", "A2", "-J", "0,1,2", "-N", trunc) == (
        3, "", "error: truncation bound must be >= 1\n")


@pytest.mark.parametrize("command", ["orbit", "contract"])
def test_negative_truncation_exits_3_naming_the_bound(capsys, command):
    assert run(capsys, command, "A2", "-J", "0,1,2", "-N", "-1") == (
        3, "", "error: truncation bound -N must be >= 0, not -1\n")


def test_format_env_selects_json(capsys, monkeypatch):
    monkeypatch.setenv("ALCOVE_FORMAT", "json")
    code, out, _ = run(capsys, "fusion", "A1", "-k", "1", "1", "1")
    assert code == 0
    assert json.loads(out) == {"type": "A1", "k": 1, "a": [1], "b": [1],
                               "terms": [{"c": [0], "N": 1}]}


def test_format_env_csv_falls_back_to_text(capsys, monkeypatch):
    monkeypatch.delenv("ALCOVE_FORMAT", raising=False)
    code, text, _ = run(capsys, "orbit", "A2", "-J", "0,1,2", "-N", "2")
    monkeypatch.setenv("ALCOVE_FORMAT", "csv")
    code_env, out, _ = run(capsys, "orbit", "A2", "-J", "0,1,2", "-N", "2")
    assert code == code_env == 0
    assert out == text
    assert out.startswith("10 orbit points with length <= 2\n")


def test_format_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("ALCOVE_FORMAT", "json")
    assert run(capsys, "fusion", "A1", "-k", "1", "1", "1", "--format", "text") == (0, "0: 1\n", "")


def parse_outcome(parser, argv, capsys):
    try:
        namespace, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return namespace, code, captured.out, captured.err


@pytest.mark.parametrize("name", COMMANDS)
@pytest.mark.parametrize("rest", [
    ["-h"],
    [],  # arguments missing
    ["A2", "--format", "xml"],  # an invalid choice
    ["A2", "-k", "x"],  # an invalid int
    ["A2", "-J", "0", "-N", "2", "-k", "1", "--he"],  # an abbreviated --help
    ["A2", "-J", "0", "-N", "2", "-k", "1", "extra"],  # unrecognized at the top level
    ["A2", "-J", "0,1,2", "-N", "2", "-k", "1", "--format", "json"],
    ["A1", "-k", "1", "1", "1", "--out", "x"],
    ["cert.json"],
    ["--criteria", "1", "--seed", "3"],
])
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch, name, rest):
    # help, usage, errors and parsed values: the one-command parser that
    # main builds answers exactly as the parser of every command
    monkeypatch.setenv("ALCOVE_FORMAT", "csv")
    argv = [name, *rest]
    assert parse_outcome(build_parser(name), argv, capsys) == parse_outcome(build_parser(), argv, capsys)


@pytest.mark.parametrize("argv", [[], ["-h"], ["nope", "A2"], ["--format", "json", "lie-info", "A2"]])
def test_arguments_naming_no_command_get_the_full_parser(capsys, argv):
    expected = parse_outcome(build_parser(), argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (None, exc.value.code, captured.out, captured.err) == expected


def test_main_builds_one_subparser(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "resolution", "A1", "-J", "0,1", "-N", "1")[0] == 0
    assert built == ["alcove", "alcove resolution"]


@pytest.mark.parametrize("argv", [
    ["lie-info", "A2"],
    ["fusion-table", "A1", "-k", "1", "--format", "json"],
    ["contract", "A2", "-J", "0,1,2", "-N", "2"],
])
@pytest.mark.parametrize("where", ["missing-dir", "dir"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    target = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(OrbitComplex, "homology_report", lambda *args: calls.append(args))
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "resolution", "E6", "-J", "0,1,2,3,4,5,6", "-N", "3",
                         "--format", "json", "--out", str(target))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith(f"error: cannot write {target}: ")


def check_failed(self, n):
    raise CheckFailed("d o d != 0 in degree 2")


@pytest.mark.parametrize("argv, code", [
    (["fusion", "A1", "-k", "-1", "0", "0"], 3),
    (["fusion", "A1", "-k", "1", "1", "1,1"], 2),
    (["resolution", "A2", "-J", "0,1,2", "-N", "2"], 4),  # homology_report is check_failed
])
@pytest.mark.parametrize("before", [None, b"an earlier document\n"])
def test_failed_command_leaves_out_file_as_it_was(tmp_path, capsys, monkeypatch, argv, code, before):
    monkeypatch.setattr(OrbitComplex, "homology_report", check_failed)
    target = tmp_path / "out"
    if before is not None:
        target.write_bytes(before)
    assert run(capsys, *argv, "--out", str(target))[:2] == (code, "")
    if before is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert target.read_bytes() == before


def test_empty_out_path_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "fusion", "A1", "-k", "1", "1", "1", "--out", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write : ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_out_through_a_dangling_symlink(tmp_path, capsys):
    # the link is there, its target is not: a failed command leaves no
    # target behind, and a command that succeeds writes through the link
    link, target = tmp_path / "link.txt", tmp_path / "target.txt"
    link.symlink_to("target.txt")
    assert run(capsys, "fusion", "A1", "-k", "-1", "0", "0", "--out", str(link))[:2] == (3, "")
    assert not target.exists() and link.is_symlink()
    assert run(capsys, "fusion", "A1", "-k", "1", "1", "1", "--out", str(link)) == (0, "", "")
    assert link.is_symlink() and target.read_text() == "0: 1\n"


@pytest.mark.parametrize("argv", [
    ["fusion-table", "G2", "-k", "1", "--format", "json"],
    ["prequant", "C2", "-k", "2", "--format", "csv"],
    ["lie-info", "A2"],
])
def test_out_file_matches_stdout(tmp_path, capsys, argv):
    target = tmp_path / "out"
    code, stdout, _ = run(capsys, *argv)
    code_file, printed, _ = run(capsys, *argv, "--out", str(target))
    assert code == code_file == 0
    assert printed == ""
    # both end the document with exactly one newline, CSV included
    assert stdout.endswith("\n") and not stdout.endswith("\n\n")
    assert target.read_bytes() == stdout.encode()
    # a longer file that was there is replaced, not appended to
    target.write_text("x" * 100_000)
    assert run(capsys, *argv, "--out", str(target))[:2] == (0, "")
    assert target.read_bytes() == stdout.encode()


def test_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "fusion-table", "G2", "-k", "1", "--format", "json")
    code2, out2, _ = run(capsys, "fusion-table", "G2", "-k", "1", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def negated_factor_weights(monkeypatch):
    # a negated weight system of the tensor factor trips the Kac-Walton
    # positivity check, on a datum with an empty memo, so that no cached
    # product hides it
    from alcove import cli, fusion

    weight_system = fusion._weight_multiplicities
    monkeypatch.setattr(fusion, "_weight_multiplicities",
                        lambda *args: {vec: -m for vec, m in weight_system(*args).items()})
    monkeypatch.setattr(cli, "build_lie_data", lambda name: replace(build_lie_data(name), _memo={}))


def homotopy_contracts_nothing(monkeypatch):
    monkeypatch.setattr(OrbitComplex, "homotopy", lambda self, i, c: ChainElt._trusted({}, c.J, c.degree + 1))


def subtraction_cancels_everything(monkeypatch):
    # the contraction loop then stops at once, with a chain that bounds nothing
    monkeypatch.setattr(ChainElt, "__sub__", lambda self, other: ChainElt._trusted({}, self.J, self.degree))


def reversed_catalog_labels(monkeypatch):
    from alcove import prequant

    level_points = prequant._level_points
    monkeypatch.setattr(prequant, "_level_points",
                        lambda *args: [(mu[::-1], X, D) for mu, X, D in level_points(*args)])


@pytest.mark.parametrize("corrupt, argv, message", [
    (negated_factor_weights, ["fusion", "A1", "-k", "2", "1", "1"], "negative fusion coefficient"),
    (homotopy_contracts_nothing, ["contract", "A2", "-J", "0,1,2", "-N", "3", "--seed", "5"],
     "contraction failed to terminate"),
    (subtraction_cancels_everything, ["contract", "A2", "-J", "0,1,2", "-N", "3", "--seed", "5"],
     "contraction certificate failed verification"),
    (reversed_catalog_labels, ["prequant", "A2", "-k", "2"],
     "catalog label (0, 1) is not the weight (1, 0) of its level-2 class"),
], ids=["kac-walton", "contraction", "contraction-verification", "catalog-label"])
def test_failed_library_check_exits_4(capsys, monkeypatch, corrupt, argv, message):
    # each internal check fails through CheckFailed: exit 4, its message on
    # stderr, no traceback and no output
    corrupt(monkeypatch)
    assert run(capsys, *argv) == (4, "", f"check failed: {message}\n")


def test_resolution_verdict_mismatch_exit_code(capsys, monkeypatch):
    from alcove import resolution

    def fake_report(self, n):
        return {"group": "A2", "J": [0], "N": n, "degrees": [], "H0": "0", "all_ok": False}

    monkeypatch.setattr(resolution.OrbitComplex, "homology_report", fake_report)
    code, out, _ = run(capsys, "resolution", "A2", "-J", "0", "-N", "2")
    assert code == 4
    assert "VERDICT MISMATCH" in out


def test_orbit_json_roundtrip(capsys):
    from fractions import Fraction

    from alcove.affine import orbit_up_to_length
    from alcove.lie import build_lie_data

    code, out, _ = run(capsys, "orbit", "C2", "-J", "0,1,2", "-N", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    parsed = {
        (tuple(Fraction(c) for c in p["coords"]), p["length"]) for p in doc["points"]
    }
    expect = {
        (op.point, op.length)
        for op in orbit_up_to_length(build_lie_data("C2"), (0, 1, 2), 3)
    }
    assert parsed == expect
