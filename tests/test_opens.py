"""Each file the package reads is opened once, by the reader of its kind.

Every ``open`` call under ``src/contamkit`` sits in one of four functions:
``output_file`` for every output, ``read_lines`` for every text input,
``_read_binary_shard`` for a ``ctk`` shard and ``NGramIndex.load`` for an
index. An input opened a second time, say to look again for a fault, is
not the input read the first time when it is a pipe.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "contamkit"
OPENERS = {
    "corpus_io.output_file", "corpus_io.read_lines", "corpus_io._read_binary_shard", "ngram_index.NGramIndex.load",
}


def _calls_open(node: ast.AST) -> bool:
    """Whether ``node`` is a call of ``open``: ``open(...)``, ``os.open(...)`` or ``path.open(...)``."""
    return isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _opens(node: ast.AST, scope: str):
    """The qualified name of the function or class around each ``open`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _opens(child, f"{scope}.{child.name}")
            continue
        if _calls_open(child):
            yield scope
        yield from _opens(child, scope)


def test_each_input_is_opened_by_its_own_reader():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert {scope for module, tree in trees.items() for scope in _opens(tree, module)} == OPENERS
