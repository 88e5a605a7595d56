"""Per-layer tracing from outside the library.

Every public function of every hnlab module is wrapped in each namespace
where it is looked up: ``tstruct.cut_cmp`` and ``objects.reduced_phase`` are
bindings of their own, separate from ``charges.cut_cmp`` and
``charges.reduced_phase``, and all of them are replaced by the one wrapper
of the underlying function.  A span is attributed to the module that
defines the function, so a call from tstruct into charges counts for the
charges layer.  Spans (name, start, end, parent, request id) are kept in
memory and written out when the run ends.

The failure path of a wrapper runs only C-level operations, because a
RecursionError may be unwinding through it at the interpreter's limit.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from time import perf_counter

MODULES = ("charges", "lifts", "autoeq", "objects", "tstruct", "stabcond",
           "multicurve", "render", "serialize", "cli")
SPAN_CAP = 100_000


def _bits(obj, depth=0) -> int:
    """Largest integer bit length inside a charge, phase, matrix or element."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return obj.bit_length()
    if depth > 4:
        return 0
    if isinstance(obj, (tuple, list)):
        if len(obj) > 8:  # a generator word, not a number container
            return 0
        return max((_bits(o, depth + 1) for o in obj), default=0)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields:
        return max((_bits(getattr(obj, f), depth + 1) for f in fields), default=0)
    num = getattr(obj, "numerator", None)
    if isinstance(num, int):
        return max(num.bit_length(), obj.denominator.bit_length())
    return 0


def _autoeq_entry(c, args, kwargs, res):
    c["autoeq.letters_in"] += sum(len(a) for a in args if isinstance(a, list))
    if isinstance(res, tuple) and res and isinstance(res[0], list):  # (word, charge)
        word_out, rest = res[0], res[1:]
    elif isinstance(res, list):
        word_out, rest = res, None
    else:
        word_out, rest = [], res
    c["autoeq.letters_out"] += len(word_out)
    bits = max(_bits(tuple(a for a in args if not isinstance(a, list))), _bits(rest))
    c["autoeq.max_bits"] = max(c["autoeq.max_bits"], bits)


def _json_len(obj) -> int:
    return len(json.dumps(obj, default=str))


def _serialize_entry(c, args, kwargs, res, name):
    if name.startswith("decode_") and args:
        c["serialize.bytes_in"] += _json_len(args[0])
    elif name.startswith("encode_"):
        c["serialize.bytes_out"] += _json_len(res)


def _count_hom(c, args, kwargs, res):
    c["objects.hom_decided"] += res.kind in ("zero", "nonzero")


def _count_cells(c, args, kwargs, res):
    c["multicurve.cells"] += sum(map(len, res))


def _count_svg(c, args, kwargs, res):
    c["render.bytes_out"] += len(res.encode())


_HOOKS = {"objects.hom_verdict": _count_hom, "multicurve.wall_scan": _count_cells,
          "render.shadow_svg": _count_svg}


def _hook(key):
    """Success hook for "layer.function".  Hooks run only at a layer's entry
    span (the caller is another layer or the benchmark), so nested calls
    inside one layer are not counted twice."""
    layer, name = key.split(".", 1)
    if layer == "autoeq":
        return _autoeq_entry
    if layer == "serialize":
        return functools.partial(_serialize_entry, name=name)
    return _HOOKS.get(key)


def _epi_requested(args, kwargs) -> int:
    n = args[2] if len(args) > 2 else kwargs.get("length", 0)
    return n if isinstance(n, int) else 0


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.fails: list[int] = []
        self.counters = _Counters()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next = 0
        self._stack: list[list] = []
        self._selfs: dict = {}
        self._main_raw = 0.0
        self._req = -1
        self._orig: list[tuple] = []
        self._wrappers: dict = {}

    # -- installation ----------------------------------------------------
    def install(self):
        wrappers = self._wrappers
        for name in MODULES:
            mod = importlib.import_module("hnlab." + name)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith("hnlab."):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, fn.__module__.split(".", 1)[1])
                self._orig.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])

    def uninstall(self):
        for mod, attr, fn in reversed(self._orig):
            setattr(mod, attr, fn)
        self._orig = []

    def _wrap(self, fn, layer):
        nid = len(self.names)
        key = f"{layer}.{fn.__name__}"
        self.names.append(key)
        self.layers.append(layer)
        self.calls.append(0)
        self.fails.append(0)
        hook = _hook(key)
        is_main = key == "cli.main"
        is_epi = key == "tstruct.epi_chain"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            entry = parent is None or parent[1] != layer
            if is_epi:
                tracer.counters["tstruct.epi_requested"] += _epi_requested(args, kwargs)
            sid = tracer._next
            tracer._next = sid + 1
            frame = [sid, layer, 0.0]
            stack.append(frame)
            tracer.calls[nid] += 1
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                tracer.fails[nid] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                selfs = tracer._selfs
                selfs[layer] = selfs.get(layer, 0.0) + d - frame[2]
                if parent is not None:
                    parent[2] += d
                if is_main:
                    tracer._main_raw += d
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((nid, t0, t1, parent[0] if parent else -1, tracer._req))
                else:
                    tracer.dropped += 1
            if is_epi:
                tracer.counters["tstruct.epi_returned"] += len(res)
            if hook is not None and entry:
                hook(tracer.counters, args, kwargs, res)
            return res

        return wrapper

    # -- per operation ---------------------------------------------------
    def begin(self, req: int):
        self._req = req
        self._stack = []
        self._selfs = {}
        self._main_raw = 0.0
        self.on = True

    def end(self):
        """Stop recording; return the operation's raw self time per layer and
        its raw time inside cli.main."""
        self.on = False
        return self._selfs, self._main_raw

    # -- results -----------------------------------------------------------
    def layer_counts(self):
        calls, fails = _Counters(), _Counters()
        for nid, layer in enumerate(self.layers):
            calls[layer] += self.calls[nid]
            fails[layer] += self.fails[nid]
        return calls, fails

    def function_counts(self, key):
        nid = self.names.index(key)
        return self.calls[nid], self.fails[nid]

    def write_spans(self, path, origin: float):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "dropped": self.dropped,
                                 "fields": ["name", "start_s", "end_s", "parent", "request"]}) + "\n")
            for nid, t0, t1, parent, req in self.spans:
                fh.write(json.dumps([self.names[nid], round(t0 - origin, 7),
                                     round(t1 - origin, 7), parent, req]) + "\n")
