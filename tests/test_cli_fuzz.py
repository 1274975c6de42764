"""A seeded fuzzer over the arguments of every command.

Each argument vector is drawn from a small grammar of valid, malformed and
extreme tokens for the nine commands and run through ``alcove.cli.main`` in
process, with its output captured.  Every call must exit with a documented
code (0, 2, 3, 4 or 5) and print no traceback.  The sizes stay small: no
large truncation bound, rank or level except the one level far above
sys.maxsize, ``99999999999999999999``, that ``fusion-table`` and
``prequant`` refuse with exit 3 and ``fusion`` answers.  ``selftest``
always gets a ``--budget`` that runs no criterion or is refused.
"""

import json
import random

import pytest

from alcove.cli import COMMANDS, main

SEEDS = (1, 2)
VECTORS_PER_SEED = 1000
EXIT_CODES = {0, 2, 3, 4, 5}

HUGE = "99999999999999999999"
# each token is drawn from its valid list 85 times in 100, else from its bad list
RANKS = {"A1": 1, "A2": 2, "A3": 3, "A4": 4, "B2": 2, "C2": 2, "G2": 2, "B3": 3, "C3": 3, "D4": 4,
         "a2": 2, "A١": 1}
BAD_GROUPS = ["A0", "B1", "D3", "E9", "Z9", "", "A", "2", "A-1", "A2x", "A 2"]
INTS = ["0", "1", "2", "3", "+2", "٣"]
BAD_INTS = ["-1", "-7", "", "x", "1.5", "1e3", "0x1", "--1"]
FORMATS = ["text", "json", "csv"]
BAD_FORMATS = ["xml", "", "JSON"]
BUDGETS = ["0", "-0"]
BAD_BUDGETS = ["-1", "nan", "x", ""]
CRITERIA = ["1", "1,3", "3", "1,2,3,4"]
BAD_CRITERIA = [",", "", "bogus", "99", "1,,2", "0"]
JUNK = ["--bogus", "-", "--", "-k", "--format", "--help", "٣", "0,1", "A2"]


def token(rng, valid, bad):
    return rng.choice(valid) if rng.random() < 0.85 else rng.choice(bad)


def weight(rng, rank):
    """A comma-separated weight of the group's rank, with coordinates that
    may pass its level, or one of another length, or malformed."""
    if rng.random() < 0.15:
        return rng.choice(["", ",", "a", "1,,2", "1.5,0", "٣,0", "1, 2"])
    size = rank if rng.random() < 0.8 else rng.randint(0, 5)
    return ",".join(str(rng.choice([0, 0, 1, 1, 2, 3, -1])) for _ in range(size))


def face(rng, rank):
    """A comma-separated node list: nodes of the group, with repeats at
    times, or nodes out of range, or malformed."""
    if rng.random() < 0.15:
        return rng.choice(["", ",", "a", "0,,1", "-1,0", "0;1", "0 1", "٠,١"])
    top = rank if rng.random() < 0.8 else rank + 2
    return ",".join(str(rng.randint(0, top)) for _ in range(rng.randint(1, top + 1)))


def out_file(rng, outs):
    return ["--out", rng.choice(outs)] if rng.random() < 0.15 else []


def common(rng, outs):
    argv = ["--format", token(rng, FORMATS, BAD_FORMATS)] if rng.random() < 0.5 else []
    return argv + out_file(rng, outs)


def arguments(rng, command, certs, outs):
    """The arguments that follow the command's name."""
    group = token(rng, list(RANKS), BAD_GROUPS)
    rank = RANKS.get(group, 2)
    if command == "lie-info":
        return [group, *common(rng, outs)]
    if command == "fusion":
        level = token(rng, INTS, BAD_INTS + [HUGE])
        return [group, "-k", level, weight(rng, rank), weight(rng, rank), *common(rng, outs)]
    if command in ("fusion-table", "prequant"):
        return [group, "-k", token(rng, INTS, BAD_INTS + [HUGE]), *common(rng, outs)]
    if command in ("orbit", "resolution"):
        return [group, "-J", face(rng, rank), "-N", token(rng, INTS, BAD_INTS), *common(rng, outs)]
    if command == "contract":
        argv = [group, "-J", face(rng, rank), "-N", token(rng, INTS, BAD_INTS)]
        for flag, bad in (("-p", BAD_INTS), ("--seed", BAD_INTS + [HUGE]), ("--samples", BAD_INTS + ["1000"])):
            if rng.random() < 0.6:
                argv += [flag, token(rng, INTS, bad)]
        return argv + out_file(rng, outs)
    if command == "verify-cert":
        return [rng.choice(certs)]
    # selftest: a budget that runs no criterion, or one that is refused
    argv = ["--budget", token(rng, BUDGETS, BAD_BUDGETS)]
    if rng.random() < 0.7:
        argv += ["--criteria", token(rng, CRITERIA, BAD_CRITERIA)]
    if rng.random() < 0.3:
        argv += ["--seed", token(rng, INTS, BAD_INTS)]
    return argv


def argument_vector(rng, certs, outs):
    command = rng.choice(COMMANDS)
    argv = [command, *arguments(rng, command, certs, outs)]
    if rng.random() < 0.1:
        argv.pop(rng.randrange(len(argv)))
    if rng.random() < 0.1:
        argv.insert(rng.randint(0, len(argv)), rng.choice(JUNK))
    return argv


def certificate_files(tmp_path):
    """Paths of certificates and of files that are none: a good one, one
    with a wrong coefficient, an empty one, text that is not JSON, a JSON
    list, a directory and a missing file."""
    from alcove.lie import build_lie_data
    from alcove.resolution import OrbitComplex, certificate_json

    oc = OrbitComplex(build_lie_data("A2"), (0, 1, 2))
    cycle = oc.random_cycle(1, 2, random.Random(3))
    good = certificate_json(oc, cycle, oc.contract_cycle(cycle))
    doc = json.loads(good)
    doc["bounding"][0]["coeff"] += 1
    texts = {"good.json": good, "coeff.json": json.dumps(doc), "empty.json": "",
             "text.json": "certificate", "list.json": "[1, 2]"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in texts] + [str(tmp_path), str(tmp_path / "missing.json")]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_argument_vector_exits_with_a_documented_code(seed, tmp_path, capsys):
    rng = random.Random(seed)
    certs = certificate_files(tmp_path)
    # a writable file, an empty path and a path in a missing directory
    outs = [str(tmp_path / "out.txt"), "", str(tmp_path / "missing" / "x")]
    codes = dict.fromkeys(sorted(EXIT_CODES), 0)
    for _ in range(VECTORS_PER_SEED):
        argv = argument_vector(rng, certs, outs)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{argv}: uncaught {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert code in EXIT_CODES, (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        codes[code] += 1
    # the grammar reaches every documented outcome at each seed
    assert all(codes.values()), codes
