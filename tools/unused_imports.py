#!/usr/bin/env python3
"""List the dead names of src/agraded: unused imports and private helpers.

Run from the root of a checkout: ``python3 tools/unused_imports.py``.  It
lists each name that a module imports but never uses (package
``__init__`` modules re-export what they import and are skipped), and each
module-level name with one leading underscore that no module of the
package reads, by name or as an attribute.  Exits 1 if any name is listed.
Standard library only.
"""

import ast
import sys
from pathlib import Path

# bound in graver.py so that censusbench/tracer.py can wrap it there
ALLOWED = {("graver.py", "buchberger")}


def unused(path, tree):
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported - used if (path.name, name) not in ALLOWED)


def private_names(tree):
    """The module-level names of a module that start with exactly one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(tree):
    """The names a module reads, as plain names or as attributes."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def dead_names(package):
    """Lines "path: name" for the unused imports and unread private helpers of a package."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(package).glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    found = [f"{path}: {name}" for path, tree in trees.items()
             if path.name != "__init__.py" for name in unused(path, tree)]
    found += [f"{path}: {name} (private, never read)" for path, tree in trees.items()
              for name in sorted(private_names(tree) - read)]
    return found


def main():
    found = dead_names("src/agraded")
    print("\n".join(found) or "no unused imports or private helpers")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
