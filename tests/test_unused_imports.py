"""tools/unused_imports.py on a small package written to a temporary tree."""

import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parent.parent / "tools" / "unused_imports.py"
_spec = importlib.util.spec_from_file_location("unused_imports", _path)
unused_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unused_imports)

MODULE_A = '''\
import os
from math import gcd, lcm

_LIMIT = 3
_dead_constant = 4


def _helper():
    return gcd(_LIMIT, 6)


def _read_elsewhere():
    return 1


def _finalize(elements):
    return elements


class _Dead:
    pass


def __dunder__():
    return _helper()
'''

MODULE_B = '''\
from . import a


def public():
    return a._read_elsewhere()
'''


MODULE_C = '''\
LIMIT = 3
UNREAD_CONSTANT = 4
ONE, TWO = 1, 2


def read_by_a_test():
    return LIMIT


def read_by_the_benchmark():
    return 1


def read_by_a_tool():
    return 2


def reexported_only():
    return 3


class Unread:
    pass


def __getattr__(name):
    raise AttributeError(name)
'''

READERS = {
    "tests/test_c.py": "from agraded.c import read_by_a_test\n\nread_by_a_test()\n",
    "censusbench/bench.py": "import agraded.c\n\nagraded.c.read_by_the_benchmark()\n",
    "tools/tool.py": "from agraded import c\n\nprint(c.read_by_a_tool(), c.ONE)\n",
}


def write_package(root, init="", **modules):
    package = root / "src" / "agraded"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(init)
    for name, text in modules.items():
        (package / f"{name}.py").write_text(text)


def write_files(root, files):
    for path, text in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text)


def test_lists_unused_imports_and_private_helpers_no_module_reads(tmp_path, monkeypatch, capsys):
    write_package(tmp_path, a=MODULE_A, b=MODULE_B)
    monkeypatch.chdir(tmp_path)
    assert unused_imports.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "src/agraded/a.py: lcm",
        "src/agraded/a.py: os",
        "src/agraded/a.py: _Dead (private, never read)",
        "src/agraded/a.py: _dead_constant (private, never read)",
        "src/agraded/a.py: _finalize (private, never read)",
        "src/agraded/b.py: public (public, never read)",
    ]


def test_lists_public_names_no_file_reads(tmp_path, monkeypatch, capsys):
    """Reads count from tests/, censusbench/ and tools/; a re-export in __init__ does not."""
    write_package(tmp_path, init="from .c import reexported_only\n", c=MODULE_C)
    write_files(tmp_path, READERS)
    monkeypatch.chdir(tmp_path)
    assert unused_imports.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "src/agraded/c.py: TWO (public, never read)",
        "src/agraded/c.py: UNREAD_CONSTANT (public, never read)",
        "src/agraded/c.py: Unread (public, never read)",
        "src/agraded/c.py: reexported_only (public, never read)",
    ]


def test_a_clean_package_passes(tmp_path, monkeypatch, capsys):
    write_package(tmp_path, b=MODULE_B, a="def _read_elsewhere():\n    return 1\n")
    write_files(tmp_path, {"tests/test_b.py": "from agraded import b\n\nb.public()\n"})
    monkeypatch.chdir(tmp_path)
    assert unused_imports.main() == 0
    assert capsys.readouterr().out == "no unused imports or unread names\n"
