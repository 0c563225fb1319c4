"""Source hygiene of the package: no unused imports, no stale __all__
entries, no dead private names, no README citation of a missing name, no
per-row product spelled outside numerics.row_matmul.

Each module of src/sparse_rnnt is parsed with ast. An imported name must be
read somewhere in its module (a name listed in __all__ counts as read),
every __all__ entry must be defined there, and every private name (`_x`)
the module binds at top level must be read there as a name. __init__.py
and `from __future__` imports are exempt. Every backticked `module.attr`
in README.md whose module is a package module must resolve.
"""

from __future__ import annotations

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sparse_rnnt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
README = SRC.parent.parent / "README.md"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _defined(tree: ast.Module) -> set[str]:
    """The names the module binds at top level."""
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _private(tree: ast.Module) -> set[str]:
    """The private names (`_x`, not dunders) the module binds at top level,
    imports aside."""
    return {name for name in _defined(tree).difference(_imported(tree))
            if name.startswith("_") and not name.startswith("__")}


def _read(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _read(tree) | set(_exported(tree))
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never read: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_is_defined(path):
    tree = ast.parse(path.read_text(), str(path))
    stale = [name for name in _exported(tree) if name not in _defined(tree)]
    assert not stale, f"{path.name}: __all__ names undefined {stale}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    tree = ast.parse(path.read_text(), str(path))
    dead = sorted(_private(tree) - _read(tree))
    assert not dead, f"{path.name}: private names never read: {dead}"


def test_the_checks_see_an_unused_import_and_a_stale_entry():
    tree = ast.parse("import os\nfrom x import y as z\n__all__ = ['z', 'gone']\n")
    used = _read(tree) | set(_exported(tree))
    assert [n for n in _imported(tree) if n not in used] == ["os"]
    assert [n for n in _exported(tree) if n not in _defined(tree)] == ["gone"]


def test_the_check_sees_an_unread_private_name():
    tree = ast.parse("from x import _y\n__all__ = []\n_K = 1\n"
                     "def _used():\n    return _K\n"
                     "def _gone():\n    return _used()\n")
    assert sorted(_private(tree)) == ["_K", "_gone", "_used"]
    assert sorted(_private(tree) - _read(tree)) == ["_gone"]


def _row_products(tree: ast.Module) -> list[int]:
    """The lines of each `a @ b` with an operand that subscripts with None,
    as (x[:, None, :] @ w)[:, 0] spells a per-row product by hand."""
    def adds_axis(side: ast.expr) -> bool:
        if not isinstance(side, ast.Subscript):
            return False
        index = side.slice.elts if isinstance(side.slice, ast.Tuple) else [side.slice]
        return any(isinstance(i, ast.Constant) and i.value is None for i in index)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                  and (adds_axis(node.left) or adds_axis(node.right)))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "numerics.py"],
                         ids=lambda p: p.name)
def test_every_row_product_is_row_matmul(path):
    # numerics.row_matmul owns the one-gemv-per-row rule; a product spelled
    # by hand elsewhere escapes its test
    lines = _row_products(ast.parse(path.read_text(), str(path)))
    assert not lines, f"{path.name}: per-row product outside row_matmul at lines {lines}"


def test_the_check_sees_a_hand_spelled_row_product():
    tree = ast.parse("a = (x[:, None, :] @ w)[:, 0]\nb = w @ y[..., None]\n"
                     "c = x @ w\nd = x[:, 0] @ w\ne = x[:, None] * w\n")
    assert _row_products(tree) == [1, 2]


def _cited(text: str) -> list[str]:
    """The backticked `module.attr` names in `text` whose module is a
    package module, in order."""
    modules = {p.stem for p in MODULES}
    return [m.group(1) for m in re.finditer(r"`((\w+)\.[\w.]+)`", text)
            if m.group(2) in modules]


def _unresolved(names: list[str]) -> list[str]:
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"sparse_rnnt.{module}"))
        except AttributeError:
            missing.append(name)
    return missing


def test_every_readme_citation_resolves():
    cited = _cited(README.read_text())
    assert cited, "README.md cites no module.attr name"
    missing = _unresolved(cited)
    assert not missing, f"README.md cites missing names {missing}"


def test_the_check_sees_a_missing_citation():
    text = ("`transducer.MAX_SYMBOLS`, `transducer._no_such_helper`, "
            "`DecodeOptions.policy`, `pyproject.toml`")
    assert _cited(text) == ["transducer.MAX_SYMBOLS", "transducer._no_such_helper"]
    assert _unresolved(_cited(text)) == ["transducer._no_such_helper"]
