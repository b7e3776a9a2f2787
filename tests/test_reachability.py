"""Every definition in the package is reached from the package itself.

A top-level function, class or method under ``src/contamkit`` must be named
somewhere else in the package (called, imported or read as an attribute),
be exported through an ``__all__``, or be imported by the acceptance tests.
Code that only other tests call does not belong in the package. Dunder
methods are called by Python itself and are not checked. Names are matched
by spelling alone, so a method counts as reached when any attribute of that
name is read anywhere in the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "contamkit"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# definitions reached from no caller in the package yet, each kept on purpose
EXCEPTIONS = {
    "metrics.score_system": "to be wired into the bleu subcommand, with the paper-table reports",
    "analytics.box_stats": "to be wired into the report subcommand, with the paper-table reports",
    "corpus_io.write_corpus": "the only writer of the ctk corpus format",
}


def _definitions(module: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item.name


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


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_package_definition_is_reached_from_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    named = set().union(*map(_named, trees.values()))
    exported = set().union(*map(_exported, trees.values()))
    imported = {node.name for node in ast.walk(ast.parse(ACCEPTANCE.read_text())) if isinstance(node, ast.alias)}
    unreached = {
        qualified
        for module, tree in trees.items()
        for qualified, name in _definitions(module, tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in named | exported | imported
    }
    assert unreached == set(EXCEPTIONS)
