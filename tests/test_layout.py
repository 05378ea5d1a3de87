"""Layout rules of the package source: no module imports a private name from
another module, so every name shared between modules is public and listed in
its module's `__all__`; no module but `operator_core` reads the PSD slack
`.psd`, so the rule "PSD within tol.psd" and the root's cut are written in
one place; no module but `collapse_product`, `chain` and the package's
re-export imports the effect-table builder or its trace, so `chain` alone
decides which code computes a named fold's law; and no module but
`operator_core` calls a commutator kernel, so every commutation test goes
through its one rule, `commute`."""

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


def psd_reads(source: str, filename: str = "<source>") -> list:
    """Lines that read an attribute named `psd` (such as `tol.psd`)."""
    return [f"{filename}:{node.lineno}: .psd"
            for node in ast.walk(ast.parse(source, filename=filename))
            if isinstance(node, ast.Attribute) and node.attr == "psd"
            and isinstance(node.ctx, ast.Load)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "operator_core.py"],
                         ids=lambda p: p.name)
def test_only_operator_core_reads_the_psd_slack(path):
    assert psd_reads(path.read_text(), path.name) == []


def test_detects_psd_reads():
    source = (
        "cut = tol.psd * 2\n"
        "Tolerances(psd=1e-9)\n"
        "tol.with_overrides(psd=args.tol_psd)\n"
        "if x < -self.tol.psd:\n"
        "    pass\n"
    )
    assert psd_reads(source) == ["<source>:1: .psd", "<source>:4: .psd"]


TABLE_NAMES = ("collapse_effect_tree", "joint_distribution")
TABLE_USERS = ("collapse_product.py", "chain.py", "__init__.py")


def table_imports(source: str, filename: str = "<source>") -> list:
    """Lines that import `collapse_effect_tree` or `joint_distribution`
    from the package by name, or read either as a module attribute."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "collapsekit"
            found += [f"{filename}:{node.lineno}: {alias.name}"
                      for alias in node.names if package and alias.name in TABLE_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in TABLE_NAMES:
            found.append(f"{filename}:{node.lineno}: {node.attr}")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in TABLE_USERS],
                         ids=lambda p: p.name)
def test_only_chain_takes_the_table_law(path):
    assert table_imports(path.read_text(), path.name) == []


def test_detects_table_imports():
    source = (
        "from .collapse_product import (\n"
        "    FOLD_TREES,\n"
        "    collapse_effect_tree,\n"
        ")\n"
        "from collapsekit.collapse_product import joint_distribution as jd\n"
        "from . import collapse_product\n"
        "table = collapse_product.collapse_effect_tree(obs, tree)\n"
        "from numpy import joint_distribution\n"
        "from .chain import exact_chain_distribution\n"
    )
    assert table_imports(source) == [
        "<source>:1: collapse_effect_tree",
        "<source>:5: joint_distribution",
        "<source>:7: collapse_effect_tree",
    ]


COMMUTATOR_NAMES = ("commutator_norm", "commutator_norms")


def commutator_uses(source: str, filename: str = "<source>") -> list:
    """Lines that read `commutator_norm` or `commutator_norms`, by name or as
    a module attribute, to call them or to alias them; importing a name, as
    the package's re-export does, is not a use."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in COMMUTATOR_NAMES and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, name))
    return [f"{filename}:{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "operator_core.py"],
                         ids=lambda p: p.name)
def test_only_operator_core_computes_a_commutator(path):
    assert commutator_uses(path.read_text(), path.name) == []


def test_detects_commutator_uses():
    source = (
        "from .operator_core import commutator_norm, commute\n"
        "if commutator_norm(a, b) > tol.num:\n"
        "    pass\n"
        "norms = operator_core.commutator_norms(gens[:-1], gens[1:])\n"
        "kernel = commutator_norms\n"
        "ok = commute(a, b, tol)\n"
    )
    assert commutator_uses(source) == [
        "<source>:2: commutator_norm",
        "<source>:4: commutator_norms",
        "<source>:5: commutator_norms",
    ]
