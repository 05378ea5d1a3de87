"""Layout rules of the package source: no module imports a private name from
another module, so every name shared between modules is public and listed in
its module's `__all__`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "collapsekit"
MODULES = sorted(SRC.glob("*.py"))


def private_imports(source: str, filename: str = "<source>") -> list:
    """`from .x import _name` (or `from collapsekit.x import _name`) lines,
    dunder names excepted."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.level > 0 or (node.module or "").split(".")[0] == "collapsekit"
        for alias in node.names:
            name = alias.name
            if package and name.startswith("_") and not name.endswith("__"):
                found.append(f"{filename}:{node.lineno}: {name}")
    return found


def test_package_modules_found():
    assert {"operator_core.py", "measurement.py", "instruments.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text(), path.name) == []


def test_detects_private_imports():
    source = (
        "from .measurement import POVM, _clamp_probabilities\n"
        "from collapsekit.chain import _leftfold_draws\n"
        "from . import __version__\n"
        "from numpy import _private\n"
    )
    assert private_imports(source) == [
        "<source>:1: _clamp_probabilities",
        "<source>:2: _leftfold_draws",
    ]
