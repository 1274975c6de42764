"""Size of the library source: for each module of src/alcove, and in total,
the raw lines, the code lines, the syntax-tree nodes and the code objects.

    python3 tests/src_size.py [--root DIR]

Code lines are the lines that hold a token other than a comment, a newline,
an indent or a dedent, less the lines of docstrings (a string constant that
is the first statement of a module, class or function).  AST nodes are those
ast.walk visits in the module's tree.  Code objects are the module's own and
every one nested in its constants, as compile() builds them: one per
function, class body, lambda, comprehension and generator expression.

--root names another checkout, so a parent commit can be measured the same
way.  The first line names the Python version that compiled the code
objects: from 3.12 on a list, dict or set comprehension is inlined into its
function (PEP 709) and builds none, so counts from different versions cannot
be compared.  The script is not a test module (its name does not match
test_*.py), so pytest does not collect it.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import platform
import sys
import tokenize
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.Module) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(tree))


def code_objects(code: CodeType) -> int:
    return 1 + sum(code_objects(c) for c in code.co_consts if isinstance(c, CodeType))


def measure(path: Path) -> tuple[int, int, int, int]:
    """(raw lines, code lines, AST nodes, code objects) of one source file."""
    source = path.read_text()
    tree = ast.parse(source, str(path))
    return (len(source.splitlines()), code_lines(source, tree), sum(1 for _ in ast.walk(tree)),
            code_objects(compile(source, str(path), "exec")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    rows = [(p.name, measure(p)) for p in sorted((args.root / "src" / "alcove").glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(r for _, r in rows))))))
    print(f"python {platform.python_version()}")
    print(f"{'module':<16}{'raw':>8}{'code':>8}{'nodes':>8}{'objects':>9}")
    for name, (raw, code, nodes, objects) in rows:
        print(f"{name:<16}{raw:>8}{code:>8}{nodes:>8}{objects:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
