"""Every public name of the package has a caller in the program.

A name in the ``__all__`` of a ``splitgeom`` module must be referred to, as
a name, an attribute or an import, somewhere in ``src/`` or ``bench/``.
References inside the name's own definition, in an ``__all__`` list and in
the package ``__init__.py`` (which only re-exports) do not count, so a
wrapper that only the tests call shows up here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitgeom"


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _public_names(tree):
    for stmt in tree.body:
        if _is_all(stmt):
            return set(ast.literal_eval(stmt.value))
    return set()


def _referenced(tree):
    """Names a module refers to outside ``__all__`` and outside the
    top-level definition of each name itself."""
    out = set()
    for stmt in tree.body:
        if _is_all(stmt):
            continue
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(part for alias in node.names for part in alias.name.split("."))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        out |= names
    return out


def test_every_public_name_has_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in sources}
    referenced = set().union(*(_referenced(t) for t in trees.values()))
    unused = sorted(f"{p.stem}.{name}" for p, t in trees.items() if p.parent == PACKAGE
                    for name in _public_names(t) - referenced)
    assert not unused, f"public names without a caller in src/ or bench/: {unused}"
