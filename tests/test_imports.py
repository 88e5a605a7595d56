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
`autoeq.AutoEq`, and only `lifts` and `serialize` read `.kmatrix`.  No
module but `lifts` reads an underscore name of `lifts` (the shared number
helpers live in `charges`), and `tstruct` does not use `lifts` at all.
`tstruct` decides the side of the cut in one place: only `_split` calls
`cut_cmp`, and no `==` or `!=` reads `smooth_mode`, which a subset reads
as finite or cofinite.  The group layer reads a lift's strip by one rule:
only `stabcond.slicing_phase` calls `lift_phase`, so `compose` and
`invert` keep the sign rule of `sl2_product` as their one path.  A word's
items are checked in one place: in `autoeq` only `_items` reads the
letter table `_SIGNED`, and no loop of `normal_form` checks an item's type.
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


def lifts_reads(source: str) -> list:
    """(line, name) for each name read from `lifts`: through any binding of
    the module (`lifts.x`, or `m.x` after `from . import lifts as m`) or by
    `from .lifts import x`; each import that binds the module reads "import"."""
    tree = ast.parse(source)
    bound, found = {"lifts", "hnlab.lifts"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.module if node.level == 0 else "hnlab." + (node.module or "")
            for alias in node.names:
                if package.rstrip(".") == "hnlab" and alias.name == "lifts":
                    bound.add(alias.asname or alias.name)
                    found.append((node.lineno, "import"))
                elif package == "hnlab.lifts":
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "hnlab.lifts":
                    bound.add(alias.asname or alias.name)
                    found.append((node.lineno, "import"))
    found.extend(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in bound
    )
    return sorted(found)


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "lifts.py"], ids=lambda p: p.name)
def test_no_private_name_of_lifts_is_read(path):
    reads = lifts_reads(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in reads if name.startswith("_")] == []


def test_tstruct_does_not_use_lifts():
    assert lifts_reads((SRC / "tstruct.py").read_text(encoding="utf-8")) == []


def test_lifts_read_is_caught():
    source = (
        "from . import autoeq, lifts\n"
        "from .lifts import Lift, _integral\n"
        "_l = None\n"
        "def f(w):\n"
        "    from . import lifts as _l\n"
        "    import hnlab.lifts as L\n"
        "    return lifts._ext_gcd(*w), lifts.IDENTITY, _l._ext_gcd(*w), L.compose\n"
        "from hnlab.lifts import mat_mul\n"
        "import hnlab.lifts\n"
        "autoeq._walk, lifts, hnlab.lifts._integral, self.lifts._x\n"
    )
    assert lifts_reads(source) == [
        (1, "import"), (2, "Lift"), (2, "_integral"), (5, "import"), (6, "import"),
        (7, "IDENTITY"), (7, "_ext_gcd"), (7, "_ext_gcd"), (7, "compose"), (8, "mat_mul"),
        (9, "import"), (10, "_integral"),
    ]


def callers(source: str, callee: str) -> list:
    """The scopes (`f`, `C.f` or `module`) that call a function named `callee`,
    by its bare name or as an attribute."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == callee:
                found.add(scope or "module")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def cut_sites(source: str) -> tuple[list, list]:
    """(the functions that call cut_cmp, the lines where an == or != has
    smooth_mode as an operand)."""
    compares = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(getattr(e, "attr", getattr(e, "id", None)) == "smooth_mode"
                for e in (node.left, *node.comparators))
    ]
    return callers(source, "cut_cmp"), sorted(compares)


def test_tstruct_splits_at_the_cut_in_one_place():
    assert cut_sites((SRC / "tstruct.py").read_text(encoding="utf-8")) == (["_split"], [])


def test_second_cut_site_is_caught():
    source = (
        "def _aisles(t, p):\n"
        "    return cut_cmp(t.cut, p.phase)\n"
        "def _split(t, pieces):\n"
        "    return [cut_cmp(t.cut, p.phase, -1) for p in pieces]\n"
        "class Spec:\n"
        "    def contains(self, label):\n"
        "        if self.smooth_mode == 'all':\n"
        "            return True\n"
        "        return (label.ident in self.smooth_ids) != (self.smooth_mode in _COFINITE)\n"
        "    def pick(spec, smooth_mode):\n"
        "        return 'none' != smooth_mode or charges.cut_cmp(1, 2)\n"
    )
    assert cut_sites(source) == (["Spec.pick", "_aisles", "_split"], [7, 11])


def test_one_strip_path_in_the_group_layer():
    found = [(path.name, scope) for path in MODULES
             for scope in callers(path.read_text(encoding="utf-8"), "lift_phase")]
    assert found == [("stabcond.py", "slicing_phase")]


def test_second_strip_path_is_caught():
    source = (
        "lift_phase = lifts.lift_phase\n"
        "def compose(g, h):\n"
        "    return _lowest(mat_mul(g.ray, h.ray), g.den * h.den, lift_phase(g, h.anchor))\n"
        "def slicing_phase(cond, t):\n"
        "    return lifts.lift_phase(cond.translate, Phase.from_value(t))\n"
        "class Lift:\n"
        "    def invert(self, u):\n"
        "        return [autoeq.lift_phase(self, p) for p in u]\n"
        "print(lift_phase(IDENTITY, HALF))\n"
    )
    assert callers(source, "lift_phase") == ["Lift.invert", "compose", "module", "slicing_phase"]


TYPE_CHECKS = {"isinstance", "issubclass", "type", "len"}


def item_check_sites(source: str) -> tuple[list, list]:
    """(the scopes that read `_SIGNED`, the lines inside a loop of
    `normal_form` that call isinstance, issubclass, type or len)."""
    reads, checks = set(), set()

    def visit(node, scope, looping):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Name) and node.id == "_SIGNED" and isinstance(node.ctx, ast.Load):
            reads.add(scope or "module")
        looping = looping or (scope == "normal_form" and isinstance(node, (ast.For, ast.While)))
        if (looping and isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in TYPE_CHECKS):
            checks.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, looping)

    visit(ast.parse(source), "", False)
    return sorted(reads), sorted(checks)


def test_word_items_are_checked_in_one_place():
    assert item_check_sites((SRC / "autoeq.py").read_text(encoding="utf-8")) == (["_items"], [])


def test_second_item_check_is_caught():
    source = (
        "_SIGNED = {'TK': ('TK', 1)}\n"
        "LOWER = [k for k in _SIGNED if k.islower()]\n"
        "def _items(word):\n"
        "    return iter([_SIGNED[item] for item in word])\n"
        "def normal_form(word):\n"
        "    isinstance(word, list)\n"
        "    for gen, n in _items(word):\n"
        "        while type(n) is not int:\n"
        "            n = len(gen)\n"
        "    return _SIGNED.get(gen)\n"
        "class Walk:\n"
        "    def runs(self, word):\n"
        "        return [isinstance(item, str) and _SIGNED[item] for item in word]\n"
    )
    assert item_check_sites(source) == (["Walk.runs", "_items", "module", "normal_form"], [8, 9])
