"""``benchmarks/code_size.py``: statements per module, docstrings excluded."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "code_size.py"
_spec = importlib.util.spec_from_file_location("code_size", _PATH)
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)

SOURCE = '''"""Module docstring: not counted."""

import os  # one

X = 1; Y = 2  # two and three


class A:  # four
    """Class docstring: not counted."""

    z = "a string that is not first"  # five

    def f(self, v):  # six
        """Function docstring: not counted."""
        if v:  # seven
            return (  # eight
                v
            )
        "a bare string after the first statement"  # nine


async def g():  # ten
    """Async docstring: not counted."""
    pass  # eleven
'''


def test_counts_statements_and_skips_docstrings():
    assert code_size.statement_count(SOURCE) == 11


def test_a_module_of_only_a_docstring_counts_zero():
    assert code_size.statement_count('"""Only a docstring."""\n') == 0
    assert code_size.statement_count("") == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_size.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py 1\nb.py 11\ntotal 12\n"
