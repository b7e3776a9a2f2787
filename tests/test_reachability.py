"""Every definition in the package is reached from the package itself.

A top-level function or class under ``src/contamkit`` must be named
somewhere else in the package (called, imported or read as an attribute)
or be exported through an ``__all__``.
A method must be called somewhere in the package, and a property read there.
Code that only other tests call does not belong in the package, and neither
does data: the package holds Python modules only. Dunder methods are called
by Python itself and are not checked.

Names are matched by spelling, so a property that shares its name with a
dataclass field anywhere in the package cannot be told from that field: such
a property counts as unreached, and takes a name of its own.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "contamkit"


def _decorated(node, name: str) -> bool:
    return any(getattr(d, "id", None) == name or getattr(getattr(d, "func", None), "id", None) == name
               for d in node.decorator_list)


def _definitions(module: str, tree: ast.Module):
    """``(qualified name, name, kind)`` per top-level definition and method;
    kind is "top", "method" or "property"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, "top"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    kind = "property" if _decorated(item, "property") else "method"
                    yield f"{module}.{node.name}.{item.name}", item.name, kind


def _named(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):  # from .module import name
            names.add(node.name)
    return names


def _called_methods(tree: ast.AST) -> set[str]:
    return {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }


def _dataclass_fields(tree: ast.AST) -> set[str]:
    return {
        item.target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _decorated(node, "dataclass")
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_package_definition_is_reached_from_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    named = set().union(*map(_named, trees.values()))
    called = set().union(*map(_called_methods, trees.values()))
    shadowing = set().union(*map(_dataclass_fields, trees.values()))
    exported = set().union(*map(_exported, trees.values()))
    reached = {
        "top": named | exported,
        "method": called,
        "property": named - shadowing,
    }
    unreached = {
        qualified
        for module, tree in trees.items()
        for qualified, name, kind in _definitions(module, tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in reached[kind]
    }
    assert unreached == set()


def test_the_package_holds_python_modules_only():
    files = [path for path in PACKAGE.rglob("*") if path.is_file() and "__pycache__" not in path.parts]
    assert files
    assert [str(path.relative_to(PACKAGE)) for path in files if path.suffix != ".py"] == []
