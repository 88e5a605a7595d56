"""Every name a src module imports is used in it, only `charges` stores a
value's fields directly, and the I/O modules import no layer at load time.

Each module under src/hnlab is parsed, and a name bound by an import
statement must appear as a bare name (ast.Name) somewhere in the module:
as a call, an attribute base, a type annotation or any other load.
`from __future__` imports bind no name.  Outside charges.py no module may
name `object.__setattr__`, `object.__new__` or a descriptor's `__set__`:
values are built by their constructors or by the `_make` and `_store`
that `charges.Value` compiles.  `cli`, `serialize` and `tstruct` import a
layer module only inside the function that uses it, so that an `hnlab`
process loads only the layers its subcommand calls.  No module imports
`fractions` at load time, only inside the function that first needs it:
a fresh process importing any src module loads neither it nor the
`decimal` it imports, nor `__future__`, and `tstruct` alone loads no
`objects`; the first rational result loads them.  Every annotation
resolves: `typing.get_type_hints` succeeds on each function, method
(static methods and property getters included) and class that a src
module defines, so an annotation names only what its module binds when
the function is defined, and no def nested in a function is annotated, as
it would evaluate its annotations at each call of the function around it.
Plane matrices in src are on (x, y) = (-deg, rk): the retired (rk, -deg)
word-matrix names do not reappear, `lifts.swap_axes` is called only by
`Lift.kmatrix` and `autoeq.AutoEq`, and only `lifts` and `serialize` read
`.kmatrix`.  No module but `lifts` reads an underscore name of `lifts`
(the shared number helpers live in `charges`), and `tstruct` does not use
`lifts` at all.
`tstruct` decides the side of the cut in one place: only `_split` calls
`cut_cmp`, and no `==` or `!=` reads `smooth_mode`, which a subset reads
as finite or cofinite.  The group layer reads a lift's strip by one rule:
only `stabcond.slicing_phase` calls `lift_phase`, so `compose` and
`invert` keep the sign rule of `sl2_product` as their one path.  A word's
items are checked in one place: in `autoeq` only `_items` reads the
letter table `_SIGNED`, and no loop of `normal_form` checks an item's type.
No module imports `hashlib`, whose OpenSSL library costs a process about
3.5 MB: `render` hashes its labels with `binascii`'s CRC-32.
"""

import ast
import importlib
import json
import pathlib
import re
import subprocess
import sys
import types
import typing

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


def _load_time_imports(source: str):
    """The import statements that run at module load: those outside any
    function body."""
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def load_time_layers(source: str) -> list:
    """Layer modules that an import run at module load (outside any function
    body) binds, or binds names from."""
    found = set()
    for node in _load_time_imports(source):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("hnlab."))
        else:
            package = node.module if node.level == 0 else "hnlab." + (node.module or "")
            parts = package.rstrip(".").split(".")
            if parts[0] == "hnlab":
                found.update(parts[1:2] or [alias.name for alias in node.names])
    return sorted(found & LAYERS)


def load_time_fractions(source: str) -> list:
    """Lines of the imports of fractions, or of a name from it, run at
    module load (outside any function body)."""
    found = []
    for node in _load_time_imports(source):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module] if node.level == 0 else []
        found += [node.lineno for n in names if n.split(".")[0] == "fractions"]
    return sorted(found)


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


def test_tstruct_imports_no_layer_at_load():
    assert load_time_layers((SRC / "tstruct.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_fractions_at_load(path):
    assert load_time_fractions(path.read_text(encoding="utf-8")) == []


def test_load_time_fractions_import_is_caught():
    source = (
        "import sys, fractions as _fr\n"
        "from fractions import Fraction\n"
        "from .fractions import x\n"
        "import fractions_extra\n"
        "try:\n"
        "    import fractions\n"
        "except ImportError:\n"
        "    pass\n"
        "class P:\n"
        "    from fractions import Fraction as F\n"
        "def _fraction():\n"
        "    import fractions\n"
        "    return fractions\n"
    )
    assert load_time_fractions(source) == [1, 2, 6, 10]


# the hnlab modules that importing each src module loads, in a fresh process
LAYER_IMPORTS = {
    "charges": ["charges"],
    "lifts": ["charges", "lifts"],
    "autoeq": ["autoeq", "charges", "lifts"],
    "stabcond": ["charges", "lifts", "stabcond"],
    "objects": ["charges", "objects"],
    "tstruct": ["charges", "tstruct"],
    "multicurve": ["charges", "multicurve"],
    "render": ["charges", "objects", "render"],
    "serialize": ["charges", "serialize"],
    "cli": ["charges", "cli", "serialize"],
}
_NOT_AT_LOAD = ("__future__", "fractions", "decimal")


def _fresh(body: str):
    """What a fresh `python -S` process running body prints, read back by
    ast.literal_eval: json imports re, so the process prints a repr."""
    script = f"import sys; sys.path.insert(0, {str(SRC.parent)!r})\n" + body
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


@pytest.mark.parametrize("name", list(LAYER_IMPORTS))
def test_importing_a_layer_loads_no_fractions(name):
    loaded = _fresh(f"import hnlab.{name}\n"
                    f"print(repr(sorted(m for m in sys.modules "
                    f"if m.startswith('hnlab.') or m in {_NOT_AT_LOAD!r})))")
    assert loaded == ["hnlab." + m for m in LAYER_IMPORTS[name]]


def test_first_result_loads_fractions():
    """The first rational result of stabcond loads fractions; the results
    are the ones an already loaded process computes, and the rationals are
    Fractions."""
    got = _fresh(
        "from hnlab import autoeq, charges, stabcond\n"
        "word = [('TK', -3), ('TO', 1), ('S', -2), ('TK', -1)]\n"
        "cond = stabcond.act_autoeq(autoeq.normal_form(word), stabcond.StabilityCondition.standard())\n"
        "before = 'fractions' in sys.modules\n"
        "tau, scale, reducer = stabcond.canonical_form(cond)\n"
        "z = stabcond.central_charge_of(cond, charges.Charge(1, 2))\n"
        "from fractions import Fraction\n"
        "print(repr((before, [v.__class__ is Fraction for v in (*tau, *scale, *z)],\n"
        "            repr((tau, scale, reducer, z)))))\n"
    )
    from hnlab import autoeq, charges, stabcond

    word = [("TK", -3), ("TO", 1), ("S", -2), ("TK", -1)]
    cond = stabcond.act_autoeq(autoeq.normal_form(word), stabcond.StabilityCondition.standard())
    here = (*stabcond.canonical_form(cond), stabcond.central_charge_of(cond, charges.Charge(1, 2)))
    assert got == (False, [True] * 6, repr(here))


def unresolved_hints(module) -> list:
    """The qualified names of the functions, methods (static and class
    methods and property getters included) and classes defined in module on
    which typing.get_type_hints raises."""
    found = []

    def check(name, obj):
        try:
            typing.get_type_hints(obj)
        except (NameError, AttributeError, TypeError):
            found.append(name)

    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            check(name, obj)
        elif isinstance(obj, type):
            check(name, obj)
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if isinstance(member, types.FunctionType):
                    check(f"{name}.{attr}", member)
    return sorted(found)


@pytest.mark.parametrize("path", [m for m in MODULES if m.stem != "__init__"],
                         ids=lambda p: p.name)
def test_every_annotation_resolves(path):
    assert unresolved_hints(importlib.import_module(f"hnlab.{path.stem}")) == []


def test_unresolved_hint_is_caught(monkeypatch):
    module = types.ModuleType("planted")
    monkeypatch.setitem(sys.modules, "planted", module)
    exec(
        "from fractions import Fraction as F\n"
        "from json import dumps\n"
        "def slope(c: 'Charge') -> 'Fraction':\n"
        "    return F(1)\n"
        "def ok(x: int, y: 'F') -> 'list[F]':\n"
        "    return [x, y]\n"
        "class Piece:\n"
        "    jh: 'JHComposition'\n"
        "    def split(self, spec: 'Piece') -> tuple:\n"
        "        return ()\n"
        "    def contains(self, label: 'StableLabel') -> bool:\n"
        "        return True\n"
        "    @staticmethod\n"
        "    def standard() -> 'Condition':\n"
        "        return None\n"
        "    @classmethod\n"
        "    def build(cls) -> 'Piece':\n"
        "        return cls()\n"
        "    @property\n"
        "    def matrix(self) -> 'Mat':\n"
        "        return ()\n"
        "class Spec:\n"
        "    smooth_ids: frozenset\n",
        module.__dict__,
    )
    assert unresolved_hints(module) == [
        "Piece", "Piece.contains", "Piece.matrix", "Piece.standard", "slope",
    ]


def nested_annotations(source: str) -> list:
    """(line, name) of each def inside a function body that annotates a
    parameter or its return."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def and in_function:
                a = child.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if child.returns or any(p is not None and p.annotation for p in params):
                    found.append((child.lineno, child.name))
            visit(child, in_function or is_def)

    visit(ast.parse(source), False)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_nested_def_is_annotated(path):
    assert nested_annotations(path.read_text(encoding="utf-8")) == []


def test_nested_annotation_is_caught():
    source = (
        "def top(x: int) -> str:\n"
        "    def px(v: tuple[int, int]):\n"
        "        return v\n"
        "    def bare(v, *args, **kw):\n"
        "        def deep(*w: int):\n"
        "            return w\n"
        "        return deep\n"
        "    class Inner:\n"
        "        def m(self) -> 'Inner':\n"
        "            return self\n"
        "    return lambda v: px(v)\n"
        "class C:\n"
        "    def method(self, v: int) -> int:\n"
        "        async def later(*, k: str = ''):\n"
        "            return k\n"
        "        return v\n"
    )
    assert nested_annotations(source) == [(2, "px"), (5, "deep"), (9, "m"), (14, "later")]


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


OPENSSL_MODULES = {"hashlib", "_hashlib"}


def openssl_imports(source: str) -> list:
    """(line, module) for each import of hashlib or _hashlib anywhere in the
    module, by an import statement or by __import__ or import_module called
    on a constant name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) in (
                    "__import__", "import_module"):
                names = [node.args[0].value]
        found += [(node.lineno, n) for n in names if str(n).split(".")[0] in OPENSSL_MODULES]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_hashlib(path):
    assert openssl_imports(path.read_text(encoding="utf-8")) == []


def test_hashlib_import_is_caught():
    source = (
        "import functools, hashlib\n"
        "from _hashlib import openssl_sha256 as sha\n"
        "from .hashlib import x\n"
        "def slot(ident):\n"
        "    try:\n"
        "        import hashlib as h\n"
        "    except ImportError:\n"
        "        h = importlib.import_module('hashlib')\n"
        "    return __import__('_hashlib'), __import__('json'), h\n"
    )
    assert openssl_imports(source) == [
        (1, "hashlib"), (2, "_hashlib"), (6, "hashlib"), (8, "hashlib"), (9, "_hashlib"),
    ]


def test_importing_every_module_loads_no_hashlib():
    names = [f"hnlab.{m.stem}" for m in MODULES if m.stem != "__init__"]
    script = (f"import importlib, json, sys; sys.path.insert(0, {str(SRC.parent)!r}); "
              f"[importlib.import_module(n) for n in {names!r}]; "
              f"print(json.dumps([sorted(m for m in sys.modules if m.startswith('hnlab.')), "
              f"sorted(m for m in sys.modules if m in {sorted(OPENSSL_MODULES)!r})]))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [sorted(names), []]
