"""JSON encodings for every public value type (schema version 1).

Charges are [rk, deg]; phases {"dir": [x, y], "shift": n}; generator
words are strings in run syntax, one letter per run with an optional
exponent (tk^3TOTK is TK**-3 TO TK); rational numbers travel as "p/q"
strings to stay exact.  Decoding validates through the constructors, so
malformed data raises DomainError; a missing key, a value of the wrong
type and a value that a constructor refuses below the root are reported
with their JSON path, as in "$.pieces[0].phase is missing"; a check
across an object's pieces names "$.pieces".  A codec that
builds a layer's values imports that layer in its body, so this module
loads only ``charges``.
"""

from __future__ import annotations

from .charges import Charge, DomainError, Phase, RationalCut, SurdCut, _named, _rational


def _require(cond: bool, msg: str):
    if not cond:
        raise DomainError(msg)


def _is_int(v) -> bool:
    """A JSON integer; bool is an int subclass in Python but not a number here."""
    return isinstance(v, int) and not isinstance(v, bool)


_REQUIRED = object()
_KINDS = {int: "an integer", list: "a list", bool: "true or false"}


def _build(make, path: str, *args):
    """make(*args), the value at `path`; a DomainError from its checks
    names the path, unless that is the root."""
    try:
        return make(*args)
    except DomainError as exc:
        if path == "$":
            raise
        raise DomainError(f"{path}: {exc}") from None


def _field(data, key: str, path: str, kind=None, default=_REQUIRED):
    """data[key] for the JSON object `data` found at `path`.

    Raises DomainError naming the path when `data` is not an object, when
    `key` is missing and has no default, or when `kind` (a key of _KINDS;
    int excludes bool) is given and the value is not of it.
    """
    _require(isinstance(data, dict), f"{path} must be an object")
    where = f"{path}.{key}"
    if key not in data:
        _require(default is not _REQUIRED, f"{where} is missing")
        return default
    value = data[key]
    if kind is not None:
        ok = _is_int(value) if kind is int else isinstance(value, kind)
        _require(ok, f"{where} must be {_KINDS[kind]}")
    return value


def encode_charge(c: Charge) -> list:
    return [c.rk, c.deg]


def decode_charge(data) -> Charge:
    _require(
        isinstance(data, list) and len(data) == 2 and all(_is_int(v) for v in data),
        "charge must be [rk, deg]",
    )
    return Charge(data[0], data[1])


def encode_phase(p: Phase) -> dict:
    return {"dir": [p.dir[0], p.dir[1]], "shift": p.shift}


def decode_phase(data, path: str = "$") -> Phase:
    d = _field(data, "dir", path, list)
    _require(
        len(d) == 2 and all(_is_int(v) for v in d),
        f"{path}.dir must be [x, y] of integers",
    )
    return _build(Phase, path, (d[0], d[1]), _field(data, "shift", path, int, 0))


def encode_cut(cut) -> dict:
    if isinstance(cut, RationalCut):
        return {"kind": "rational", "phase": encode_phase(cut.phase)}
    return {
        "kind": "surd",
        "a": cut.a,
        "b": cut.b,
        "c": cut.c,
        "D": cut.D,
        "strip": cut.strip,
    }


def decode_cut(data, path: str = "$"):
    kind = _field(data, "kind", path)
    if kind == "rational":
        return RationalCut(decode_phase(_field(data, "phase", path), f"{path}.phase"))
    if kind == "surd":
        a, b, c, d = (_field(data, k, path, int) for k in ("a", "b", "c", "D"))
        return _build(SurdCut, path, a, b, c, d, _field(data, "strip", path, int, 0))
    raise DomainError(f"{path}.kind: " + _named("unknown cut kind", kind, repr))


def _encode_jh(jh) -> list:
    out = []
    for lab, count in jh.entries:
        if lab.kind == "extreme":
            out.append(["extreme", count])
        else:
            out.append(["smooth", lab.ident, count])
    return out


def _decode_jh(data, path: str):
    from . import objects
    _require(isinstance(data, list), f"{path} must be a list")
    entries = []
    for i, e in enumerate(data):
        where = f"{path}[{i}]"
        _require(isinstance(e, list) and len(e) >= 2, f"{where}: bad jh entry")
        if e[0] == "extreme":
            _require(len(e) == 2, f"{where}: extreme jh entry is [extreme, count]")
            entries.append((objects.EXTREME, e[1]))
        elif e[0] == "smooth":
            _require(
                len(e) == 3 and isinstance(e[1], str),
                f"{where}: smooth jh entry is [smooth, id, count]",
            )
            entries.append((_build(objects.smooth, where, e[1]), e[2]))
        else:
            raise DomainError(f"{where}: " + _named("unknown label kind", e[0], repr))
        _require(_is_int(entries[-1][1]), f"{where}: count must be an integer")
    return _build(objects.JHComposition, path, tuple(entries))


def encode_object(x) -> dict:
    out = {
        "pieces": [
            {
                "phase": encode_phase(p.phase),
                "jh": _encode_jh(p.jh),
                "perfect": p.perfect,
            }
            for p in x.pieces
        ]
    }
    if x.indecomposable is not None:
        out["indecomposable"] = x.indecomposable
    return out


def decode_object(data, path: str = "$"):
    from . import objects
    pieces = []
    for i, p in enumerate(_field(data, "pieces", path, list)):
        where = f"{path}.pieces[{i}]"
        pieces.append(
            _build(
                objects.SemistablePiece,
                where,
                decode_phase(_field(p, "phase", where), f"{where}.phase"),
                _decode_jh(_field(p, "jh", where), f"{where}.jh"),
                _field(p, "perfect", where, bool),
            )
        )
    indecomposable = data.get("indecomposable")
    _require(
        indecomposable is None or isinstance(indecomposable, bool),
        f"{path}.indecomposable must be true, false or null",
    )
    return _build(objects.FormalObject, f"{path}.pieces", tuple(pieces), indecomposable)


def encode_word(word) -> str:
    from . import autoeq
    return autoeq.word_to_string(word)


def decode_word(data) -> list:
    from . import autoeq
    _require(isinstance(data, str), "word must be a string")
    return autoeq.word_from_string(data)


def encode_autoeq(g) -> dict:
    return {
        "matrix": [list(row) for row in g.kmatrix],
        "anchor": encode_phase(g.anchor),
    }


def _matrix(data, path: str) -> list:
    m = _field(data, "matrix", path, list)
    _require(
        len(m) == 2 and all(isinstance(row, list) and len(row) == 2 for row in m),
        f"{path}.matrix must be a 2x2 list of rows",
    )
    return m


def decode_autoeq(data, path: str = "$"):
    from . import autoeq
    m = _matrix(data, path)
    _require(
        all(_is_int(e) for row in m for e in row),
        f"{path}.matrix entries must be integers",
    )
    anchor = decode_phase(_field(data, "anchor", path), f"{path}.anchor")
    return autoeq.AutoEq(((m[0][0], m[0][1]), (m[1][0], m[1][1])), anchor)


def encode_subset(spec) -> dict:
    if spec.smooth_mode in ("none", "all"):
        sm = spec.smooth_mode
    else:
        sm = {spec.smooth_mode: sorted(spec.smooth_ids)}
    return {"extreme": spec.include_extreme, "smooth": sm}


def decode_subset(data, path: str = "$"):
    from . import tstruct
    extreme = _field(data, "extreme", path, bool, False)
    sm = data.get("smooth", "none")
    if isinstance(sm, str):
        return _build(tstruct.StableSubsetSpec, path, extreme, sm)
    _require(isinstance(sm, dict) and len(sm) == 1, f"{path}.smooth: bad smooth subset")
    mode, ids = next(iter(sm.items()))
    _require(
        isinstance(ids, list) and all(isinstance(i, str) for i in ids),
        f"{path}.smooth.{mode} must be a list of strings",
    )
    return _build(tstruct.StableSubsetSpec, path, extreme, mode, frozenset(ids))


def encode_tstructure(t) -> dict:
    return {"cut": encode_cut(t.cut), "minus": encode_subset(t.minus)}


def decode_tstructure(data, path: str = "$"):
    from . import tstruct
    cut = decode_cut(_field(data, "cut", path), f"{path}.cut")
    minus = (
        decode_subset(data["minus"], f"{path}.minus")
        if "minus" in data
        else tstruct.EMPTY_SPEC
    )
    return tstruct.TStructure(cut, minus)


def encode_fraction(f) -> str:
    """"p/q", or the digits of an integer; f is read by charges._rational,
    so an int is printed as it is and builds no Fraction."""
    f = _rational(f)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def decode_fraction(data) -> Fraction | int:
    """A rational from a "p/q" string or an integer, as JSON or as a flag, read
    by charges._rational, whose refusals keep their text; a JSON float gets
    its own, which says how to write the value."""
    if isinstance(data, float):
        raise DomainError(f'bad rational {data!r}: a JSON float is not exact; write it as "p/q"')
    return _rational(data)


def encode_gl(g) -> dict:
    return {
        "matrix": [[encode_fraction(e) for e in row] for row in g.matrix],
        "anchor": encode_phase(g.anchor),
    }


def decode_gl(data, path: str = "$"):
    from . import lifts
    rows = [[_build(decode_fraction, f"{path}.matrix[{i}][{j}]", e) for j, e in enumerate(row)]
            for i, row in enumerate(_matrix(data, path))]
    return lifts.Lift(rows, decode_phase(_field(data, "anchor", path), f"{path}.anchor"))


def encode_complex(z) -> dict:
    return {"re": encode_fraction(z[0]), "im": encode_fraction(z[1])}


def encode_multicharge(c) -> list:
    return [c.deg, c.rk1, c.rk2]


def decode_multicharge(data, path: str = "$"):
    from . import multicurve
    _require(
        isinstance(data, list) and len(data) == 3 and all(_is_int(v) for v in data),
        f"{path}: multi-charge is [deg, rk1, rk2] of integers",
    )
    return multicurve.MultiCharge(data[0], data[1], data[2])


def encode_declared(obj) -> dict:
    return {
        "charge": encode_multicharge(obj.charge),
        "quotients": [encode_multicharge(q) for q in obj.quotients],
    }


def decode_declared(data, path: str = "$"):
    from . import multicurve
    quotients = _field(data, "quotients", path, list, [])
    return multicurve.DeclaredObject(
        decode_multicharge(_field(data, "charge", path), f"{path}.charge"),
        tuple(decode_multicharge(q, f"{path}.quotients[{i}]") for i, q in enumerate(quotients)),
    )
