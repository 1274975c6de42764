"""Check-deletion sweep: for each statement of src/alcove that fails an
internal check, turn that one statement into ``pass`` in a copy of the tree,
run Tier-1 there with ``pytest -x`` under a deadline of DEADLINE seconds, and
report the site as killed (some test failed), survived (every test passed) or
timed out.

    python3 tests/check_sweep.py [--file src/alcove/fusion.py]

A site is a statement ``check(...)`` or ``raise CheckFailed(...)``.  The
sites run one at a time, each on its own copy of src/, tests/ and
pyproject.toml in a temporary directory, so the checkout is never changed.
The script is not a test module (its name does not match test_*.py), so
pytest does not collect it.  Stdlib only.  The exit status is 1 when a site
survived or timed out.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEADLINE = 600  # seconds per Tier-1 run; a passing run takes under a minute


def sites(path: Path) -> list[ast.stmt]:
    """The check statements of one source file, in line order."""
    def fails_check(node: ast.AST) -> bool:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            return isinstance(node.value.func, ast.Name) and node.value.func.id == "check"
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            return isinstance(node.exc.func, ast.Name) and node.exc.func.id == "CheckFailed"
        return False

    tree = ast.parse(path.read_text(), str(path))
    return sorted((n for n in ast.walk(tree) if fails_check(n)), key=lambda n: n.lineno)


def without(source: bytes, node: ast.stmt) -> bytes:
    """source with the statement node replaced by pass; the line numbers of
    every other statement are kept.  ast offsets count UTF-8 bytes."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head, tail = lines[first][: node.col_offset], lines[last][node.end_col_offset:]
    return b"".join(lines[:first] + [head + b"pass" + b"\n" * (last - first) + tail] + lines[last + 1:])


def run_site(rel: str, node: ast.stmt) -> str:
    """Tier-1 on a copy of the tree without one check: killed, survived or timed out."""
    with tempfile.TemporaryDirectory(prefix="check-sweep-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / rel
        target.write_bytes(without(target.read_bytes(), node))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        # a session of its own, so that a timed-out run is stopped with its children
        proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(timeout=DEADLINE)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timed out"
    return "survived" if code == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--file", action="append",
                        help="sweep only this source file (repeatable), e.g. src/alcove/fusion.py")
    args = parser.parse_args(argv)
    paths = [ROOT / f for f in args.file] if args.file else sorted((ROOT / "src" / "alcove").glob("*.py"))
    todo = [(p.relative_to(ROOT).as_posix(), node) for p in paths for node in sites(p)]
    verdicts = []
    for rel, node in todo:
        verdicts.append(run_site(rel, node))
        print(f"{rel}:{node.lineno}: {verdicts[-1]}", flush=True)
    counts = {v: verdicts.count(v) for v in ("killed", "survived", "timed out")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()), f"of {len(todo)} sites")
    return int(counts["survived"] + counts["timed out"] > 0)


if __name__ == "__main__":
    sys.exit(main())
