"""Count the lines of each module of ``src/relayrates/`` by kind.

A line is a docstring line if it lies inside a module, class or function
docstring, else a code line if it continues another string literal, else blank
if it holds only whitespace, else comment-only if its first non-blank character
is ``#``, else a code line. The four counts add up to the file's total, and
"code lines" is the measure a simplicity change is judged by.

    python tools/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's ``src/relayrates``; pass another
checkout's to compare two trees.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("total", "docstring", "comment", "blank", "code")


def count_lines(source: str) -> dict[str, int]:
    """The line counts of one module's ``source``, keyed by ``KINDS``."""
    docstring, continued = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
        elif isinstance(node, ast.JoinedStr) or (isinstance(node, ast.Constant)
                                                 and isinstance(node.value, str)):
            continued.update(range(node.lineno + 1, node.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    lines = source.splitlines()
    counts["total"] = len(lines)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif number in continued:
            counts["code"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src/relayrates"
    rows = {path.name: count_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    rows["src/ total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    print(f"{'module':<14}" + "".join(f"{kind:>10}" for kind in KINDS))
    for name, row in rows.items():
        print(f"{name:<14}" + "".join(f"{row[kind]:>10}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
