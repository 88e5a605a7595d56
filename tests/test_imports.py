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
only the layers its subcommand calls.  Plane matrices in src are on
(x, y) = (-deg, rk): the retired (rk, -deg) word-matrix names do not
reappear, `lifts.swap_axes` is called only by `Lift.kmatrix` and
`autoeq.AutoEq`, and only `lifts` and `serialize` read `.kmatrix`.
"""

import ast
import pathlib
import re

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


RETIRED = re.compile(r"\b(word_matrix|generator_matrix|_GEN_MATRICES|KMat)\b")
SWAP_CALLERS = {("lifts.py", "Lift.kmatrix"), ("autoeq.py", "AutoEq")}
KMATRIX_READERS = {"lifts.py", "serialize.py"}


def coordinate_leaks(source: str, name: str) -> list:
    """(line, what) for each retired (rk, -deg) name in the text of module
    `name`, each swap_axes call outside its two callers and each .kmatrix
    read outside lifts and serialize."""
    found = [(source.count("\n", 0, m.start()) + 1, m.group())
             for m in RETIRED.finditer(source)]

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            f = node.func
            callee = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if callee == "swap_axes" and (name, scope) not in SWAP_CALLERS:
                found.append((node.lineno, f"swap_axes in {scope or 'module'}"))
        if (isinstance(node, ast.Attribute) and node.attr == "kmatrix"
                and isinstance(node.ctx, ast.Load) and name not in KMATRIX_READERS):
            found.append((node.lineno, "kmatrix"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_plane_coordinate_system(path):
    assert coordinate_leaks(path.read_text(encoding="utf-8"), path.name) == []


def test_coordinate_leak_is_caught():
    source = (
        "from . import lifts\n"
        "_GEN_MATRICES = {}\n"
        "def word_matrix(w) -> 'KMat':\n"
        "    return lifts.swap_axes(w)\n"
        "class Lift:\n"
        "    def kmatrix(self):\n"
        "        return swap_axes(self.matrix)\n"
        "def AutoEq(m, anchor):\n"
        "    return lifts.Lift(lifts.swap_axes(m), anchor).kmatrix\n"
        "# generator_matrix\n"
    )
    assert coordinate_leaks(source, "autoeq.py") == [
        (2, "_GEN_MATRICES"), (3, "KMat"), (3, "word_matrix"), (4, "swap_axes in word_matrix"),
        (7, "swap_axes in Lift.kmatrix"), (9, "kmatrix"), (10, "generator_matrix"),
    ]
    # in lifts, Lift.kmatrix may swap and a .kmatrix read is allowed, AutoEq may not swap
    assert coordinate_leaks(source, "lifts.py") == [
        (2, "_GEN_MATRICES"), (3, "KMat"), (3, "word_matrix"), (4, "swap_axes in word_matrix"),
        (9, "swap_axes in AutoEq"), (10, "generator_matrix"),
    ]
