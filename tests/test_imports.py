"""What importing the library loads, and what a purged copy leaves behind.

A fresh interpreter that imports ``balance_lab.cli`` loads neither
``dataclasses`` nor ``inspect``: the value types are named tuples and plain
classes, so building them generates no code.  And a purged copy of the
package must die once nothing in it is reachable: nothing outside the
package, such as typing's subscription cache, may keep a module, or a class
or function that holds its namespace, alive across a purge and re-import,
as a process that reloads the library runs.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_isolated(code: str) -> str:
    """Stdout of ``code`` in a fresh ``-I -B`` interpreter with ``src`` first on the path."""
    prelude = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", prelude + code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    out = run_isolated(
        "import balance_lab.cli\n"
        "print(balance_lab.__file__)\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    loaded, heavy = out.splitlines()
    assert Path(loaded).resolve().parent == SRC / "balance_lab"
    assert heavy == "[]"


# Imports and purges the package three times, as a process that reloads the
# library does, and counts what survives of the purged copies: each module,
# and each class and function it defines, since those hold its namespace.
PURGE_THREE_TIMES = """
import gc, importlib, types, weakref

def own(module):
    yield module
    for value in vars(module).values():
        if isinstance(value, (type, types.FunctionType)) and value.__module__ == module.__name__:
            yield value

refs = []
for _ in range(3):
    importlib.import_module("balance_lab.cli")
    names = [m for m in sys.modules if m == "balance_lab" or m.startswith("balance_lab.")]
    refs.extend(weakref.ref(obj) for m in names for obj in own(sys.modules.pop(m)))
gc.collect()
print(len(refs), sum(ref() is not None for ref in refs))
"""


def test_purged_copies_of_the_package_are_freed():
    out = run_isolated(PURGE_THREE_TIMES)
    purged, alive = map(int, out.split())
    assert purged > 3 * 8
    assert alive == 0

