"""Every name a src module imports is used in it, only `charges` stores a
value's fields directly, and the I/O modules import no layer at load time.

Each module under src/hnlab is parsed, and a name bound by an import
statement must appear as a bare name (ast.Name) somewhere in the module:
as a call, an attribute base, a type annotation or any other load.
`from __future__` imports bind no name.  Outside charges.py no module may
name `object.__setattr__`, `object.__new__` or a descriptor's `__set__`:
values are built by their constructors or by the `_make` and `_store`
that `charges.Value` compiles.  `cli` and `serialize` import a layer module
only inside the function that uses it, so that an `hnlab` process loads
only the layers its subcommand calls.
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


LAYERS = {"lifts", "autoeq", "objects", "tstruct", "stabcond", "multicurve", "render"}
IO_MODULES = [SRC / "cli.py", SRC / "serialize.py"]


def load_time_layers(source: str) -> list:
    """Layer modules that an import run at module load (outside any function
    body) binds, or binds names from."""
    found = set()
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("hnlab."))
        elif isinstance(node, ast.ImportFrom):
            package = node.module if node.level == 0 else "hnlab." + (node.module or "")
            parts = package.rstrip(".").split(".")
            if parts[0] == "hnlab":
                found.update(parts[1:2] or [alias.name for alias in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found & LAYERS)


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


@pytest.mark.parametrize("path", IO_MODULES, ids=lambda p: p.name)
def test_io_modules_import_no_layer_at_load(path):
    assert load_time_layers(path.read_text(encoding="utf-8")) == []


def test_load_time_layer_import_is_caught():
    source = (
        "import json, hnlab.lifts\n"
        "from . import __version__, autoeq, serialize\n"
        "from .objects import FormalObject\n"
        "from hnlab import multicurve\n"
        "from .charges import Phase\n"
        "try:\n"
        "    from hnlab.render import shadow_svg\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    from . import stabcond\n"
        "    def f(self):\n"
        "        from . import tstruct\n"
        "        return tstruct\n"
    )
    assert load_time_layers(source) == [
        "autoeq", "lifts", "multicurve", "objects", "render", "stabcond",
    ]
