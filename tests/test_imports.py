"""Every name a src module imports is used in it, and only `charges`
stores a value's fields directly.

Each module under src/hnlab is parsed, and a name bound by an import
statement must appear as a bare name (ast.Name) somewhere in the module:
as a call, an attribute base, a type annotation or any other load.
`from __future__` imports bind no name.  Outside charges.py no module may
name `object.__setattr__`, `object.__new__` or a descriptor's `__set__`:
values are built by their constructors or by the `_make` and `_store`
that `charges.Value` compiles.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hnlab"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(_imported(tree)) - used)


def raw_stores(source: str) -> list:
    """Lines naming object.__setattr__, object.__new__ or any .__set__."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and (
            node.attr == "__set__"
            or (node.attr in ("__setattr__", "__new__")
                and isinstance(node.value, ast.Name) and node.value.id == "object")
        )
    )


def test_modules_found():
    assert len(MODULES) > 1 and SRC / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from .charges import Charge, cross\n"
        "def f(c: Charge) -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["cross", "osp"]


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "charges.py"], ids=lambda p: p.name)
def test_fields_are_stored_only_in_charges(path):
    assert raw_stores(path.read_text(encoding="utf-8")) == []


def test_raw_store_is_caught():
    source = (
        "from .charges import Phase\n"
        "_new, _put = object.__new__, Phase.dir.__set__\n"
        "def f(p, v):\n"
        "    object.__setattr__(p, 'shift', v)\n"
        "    p.__setattr__('shift', v)\n"
        "    return _put(_new(Phase), (0, 1))\n"
    )
    assert raw_stores(source) == [2, 2, 4]
