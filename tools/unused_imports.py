#!/usr/bin/env python3
"""List the dead names of src/agraded: unused imports, private helpers, unread public names.

Run from the root of a checkout: ``python3 tools/unused_imports.py``.  It
lists each name that a module imports but never uses (package
``__init__`` modules re-export what they import and are skipped), each
module-level name with one leading underscore that no module of the
package reads, and each other module-level name, dunders aside, that no
file under src/, tests/, censusbench/ or tools/ reads.  A read is a use
by name or as an attribute; an import, such as a re-export in
``__init__``, is not one.  Exits 1 if any name is listed.  Standard
library only.
"""

import ast
import sys
from pathlib import Path

# bound in graver.py so that censusbench/tracer.py can wrap it there
ALLOWED = {("graver.py", "buchberger")}
# the trees whose files may read a public name of the package
READERS = ("src", "tests", "censusbench", "tools")


def unused(path, tree):
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported - used if (path.name, name) not in ALLOWED)


def module_names(tree):
    """The names a module defines at module level: functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def private_names(tree):
    """The module-level names of a module that start with exactly one underscore."""
    return {name for name in module_names(tree)
            if name.startswith("_") and not name.startswith("__")}


def public_names(tree):
    """The module-level names of a module that do not start with an underscore."""
    return {name for name in module_names(tree) if not name.startswith("_")}


def read_names(tree):
    """The names a module reads, as plain names or as attributes."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)}


def dead_names(package):
    """Lines "path: name" for the unused imports, unread private helpers and
    unread public names of a package."""
    trees = parse(Path(package).glob("*.py"))
    read = set().union(*map(read_names, trees.values()))
    everywhere = read.union(*map(read_names, parse(
        path for root in READERS for path in Path(root).rglob("*.py")).values()))
    found = [f"{path}: {name}" for path, tree in trees.items()
             if path.name != "__init__.py" for name in unused(path, tree)]
    found += [f"{path}: {name} (private, never read)" for path, tree in trees.items()
              for name in sorted(private_names(tree) - read)]
    found += [f"{path}: {name} (public, never read)" for path, tree in trees.items()
              if path.name != "__init__.py" for name in sorted(public_names(tree) - everywhere)]
    return found


def main():
    found = dead_names("src/agraded")
    print("\n".join(found) or "no unused imports or unread names")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
