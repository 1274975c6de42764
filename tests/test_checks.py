"""Every internal check of the library fails through lie.check, which raises
CheckFailed: no check is an assert statement, so python -O removes none."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("path", sorted((SRC / "alcove").glob("*.py")), ids=lambda path: path.name)
def test_library_has_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


# every Kac-Walton coefficient raised by 1, so that criteria 1 and 3 fail
CORRUPT_KAC_WALTON = """
import sys
from alcove import cli, fusion

kac_walton = fusion._kac_walton
fusion._kac_walton = lambda *args: {w: c + 1 for w, c in kac_walton(*args).items()}
sys.exit(cli.main(["selftest", "--criteria", "1,3"]))
"""


def test_selftest_fails_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_KAC_WALTON], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stderr) == (4, "")
    lines = proc.stdout.splitlines()
    assert [line.split(" (")[0] for line in lines] == ["FAIL 1-su2-closed-form", "FAIL 3-ring-axioms"]
    assert all(": CheckFailed: " in line for line in lines), lines
