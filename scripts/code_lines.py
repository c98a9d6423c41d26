"""Count the code lines of each module under ``src/efl``.

A code line is a line that is not blank, not a comment line (its first
non-blank character is ``#``) and not part of a docstring: the string that
opens a module, class or function body.  Run from anywhere::

    python scripts/code_lines.py            # the modules under src/efl
    python scripts/code_lines.py DIR        # the modules under DIR

It prints one ``count path`` line per module, sorted by path, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "efl"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
