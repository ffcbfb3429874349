#!/usr/bin/env python3
"""List the names that a module of src/agraded imports but never uses.

Run from the root of a checkout: ``python3 tools/unused_imports.py``.
Package ``__init__`` modules re-export what they import and are skipped.
Exits 1 if any name is listed.  Standard library only.
"""

import ast
import sys
from pathlib import Path

# bound in graver.py so that censusbench/tracer.py can wrap it there
ALLOWED = {("graver.py", "buchberger")}


def unused(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported - used if (path.name, name) not in ALLOWED)


def main():
    found = [f"{path}: {name}" for path in sorted(Path("src/agraded").glob("*.py"))
             if path.name != "__init__.py" for name in unused(path)]
    print("\n".join(found) or "no unused imports")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
