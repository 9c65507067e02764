"""Print the size of each module of ``src/balance_lab`` as a statement count.

The count is the number of ``ast.stmt`` nodes in a module's syntax tree, so
comments, blank lines and how lines are wrapped do not change it.
Docstrings (the leading string of a module, class or function body) are
not counted.  One line per module, then the total.  Standard library only.

    python3 benchmarks/code_size.py [SOURCE_DIR]
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "balance_lab"
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statement_count(source: str) -> int:
    """Statements in ``source``, docstrings excluded."""
    nodes = list(ast.walk(ast.parse(source)))
    statements = sum(isinstance(node, ast.stmt) for node in nodes)
    docstrings = sum(
        isinstance(node, _DOCSTRING_OWNERS) and ast.get_docstring(node, clean=False) is not None
        for node in nodes
    )
    return statements - docstrings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("source_dir", nargs="?", type=Path, default=SOURCE_DIR)
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.source_dir.glob("*.py")):
        count = statement_count(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
