"""No library function calls itself, so no input can run the interpreter out of stack.

Two calls to self are allowed, each with a depth bounded independently of
the input's size: ``cli._json_texts``, whose depth is the nesting of a
report, and the ``search`` inside ``chordal._exhaustive_counterexample``,
one level per edge, refused above ``EXHAUSTIVE_EDGE_LIMIT`` edges.
"""

import ast
import sys
from pathlib import Path

from balance_lab import chordal

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "balance_lab").glob("*.py"))
BOUNDED = {"cli._json_texts", "chordal._exhaustive_counterexample.search"}


def _calls_itself(call: ast.Call, name: str, method: bool) -> bool:
    # A function calls itself by its bare name; a method through self or cls.
    func = call.func
    if method:
        return (
            isinstance(func, ast.Attribute)
            and func.attr == name
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        )
    return isinstance(func, ast.Name) and func.id == name


def self_calls(source: str, module: str) -> list[str]:
    """Qualified names (``module.outer.inner``) of the functions that call themselves."""
    found = []
    pending = [(ast.parse(source), module, False)]
    while pending:
        node, scope, in_class = pending.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                pending.append((child, f"{scope}.{child.name}", True))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}"
                if any(
                    _calls_itself(call, child.name, in_class)
                    for call in ast.walk(child)
                    if isinstance(call, ast.Call)
                ):
                    found.append(name)
                pending.append((child, name, False))
            else:
                pending.append((child, scope, in_class))
    return sorted(found)


def test_checker_flags_functions_methods_and_nested_functions_that_call_themselves():
    source = (
        "def walk(v):\n    return [walk(w) for w in v]\n"
        "def outer():\n    def extend(v):\n        yield from extend(v)\n    return extend\n"
        "def write(x):\n    return x\n"
        "class Tree:\n"
        "    def depth(self):\n        return 1 + self.depth()\n"
        "    @classmethod\n    def build(cls, n):\n        return cls.build(n - 1)\n"
        "    def __new__(cls):\n        return super().__new__(cls)\n"
        "    def write(self, x):\n        write(x)\n        self.stream.write(x)\n"
    )
    assert self_calls(source, "m") == [
        "m.Tree.build", "m.Tree.depth", "m.outer.extend", "m.walk",
    ]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"balance.py", "chordal.py", "cli.py", "graphs.py"}


def test_no_library_function_calls_itself_but_the_bounded_two():
    found = {
        name
        for path in SOURCES
        for name in self_calls(path.read_text(encoding="utf-8"), path.stem)
    }
    assert found - BOUNDED == set()
    # Each allowed entry still names a function that calls itself.
    assert BOUNDED <= found
    assert chordal.EXHAUSTIVE_EDGE_LIMIT + 10 < sys.getrecursionlimit()
