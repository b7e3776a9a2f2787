"""Every package module parses as Python 3.10, the floor ``pyproject.toml``
declares (``requires-python = ">=3.10"``).

This checks syntax only, through ``ast.parse(..., feature_version=(3, 10))``:
a standard-library function or module added after 3.10 still passes here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "contamkit"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
