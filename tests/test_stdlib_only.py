"""The library stays pure standard library: every absolute import names a stdlib module."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "balance_lab").glob("*.py"))


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level names of absolute imports outside ``sys.stdlib_module_names``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({n.split(".")[0] for n in names} - sys.stdlib_module_names)


def test_checker_flags_third_party_imports():
    source = (
        "import os.path\nfrom . import graphs\n"
        "import numpy as np\nfrom scipy.linalg import null_space\n"
    )
    assert non_stdlib_imports(source) == ["numpy", "scipy"]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"balance.py", "chordal.py", "cli.py", "dynamics.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []
