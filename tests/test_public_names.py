"""Every public name of the package has a caller in the program.

A name in the ``__all__`` of a ``splitgeom`` module must be referred to, as
a name, an attribute or an import, somewhere in ``src/`` or ``bench/``.
References inside the name's own definition, in an ``__all__`` list and in
the package ``__init__.py`` (which only re-exports) do not count, so a
wrapper that only the tests call shows up here.

Every parameter with a default of a module-level ``build_*`` function in
``src/`` must be passed, by keyword or by position, by some call in
``src/`` or ``bench/``; a call with ``*`` passes every positional
parameter, and one with ``**`` every parameter.  A default that no caller
changes is a constant.
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


def _trees():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    return {p: ast.parse(p.read_text(), str(p)) for p in sources}


def test_every_public_name_has_a_caller():
    trees = _trees()
    referenced = set().union(*(_referenced(t) for t in trees.values()))
    unused = sorted(f"{p.stem}.{name}" for p, t in trees.items() if p.parent == PACKAGE
                    for name in _public_names(t) - referenced)
    assert not unused, f"public names without a caller in src/ or bench/: {unused}"


def test_every_builder_default_is_passed_by_a_caller():
    trees = _trees()
    builders = {stmt.name: stmt.args for p, t in trees.items() if p.parent == PACKAGE
                for stmt in t.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("build_")}
    passed = {name: set() for name in builders}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in builders:
                continue
            args = builders[name]
            positional = [a.arg for a in args.posonlyargs + args.args]
            if any(kw.arg is None for kw in call.keywords):
                passed[name].update(positional + [a.arg for a in args.kwonlyargs])
            if any(isinstance(a, ast.Starred) for a in call.args):
                passed[name].update(positional)
            passed[name].update(positional[:len(call.args)])
            passed[name].update(kw.arg for kw in call.keywords)
    unpassed = []
    for name, args in builders.items():
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        unpassed += [f"{name}({a.arg}=)" for a in defaulted if a.arg not in passed[name]]
    assert not unpassed, f"builder defaults that no call in src/ or bench/ passes: {unpassed}"
