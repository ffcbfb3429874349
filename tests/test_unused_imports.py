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


def write_package(root, **modules):
    package = root / "src" / "agraded"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    for name, text in modules.items():
        (package / f"{name}.py").write_text(text)


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
    ]


def test_a_clean_package_passes(tmp_path, monkeypatch, capsys):
    write_package(tmp_path, b=MODULE_B, a="def _read_elsewhere():\n    return 1\n")
    monkeypatch.chdir(tmp_path)
    assert unused_imports.main() == 0
    assert capsys.readouterr().out == "no unused imports or private helpers\n"
