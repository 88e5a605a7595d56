"""JSON encodings for every public value type (schema version 1).

Charges are [rk, deg]; phases {"dir": [x, y], "shift": n}; generator
words are plain strings; rational numbers travel as "p/q" strings to
stay exact.  Decoding validates through the constructors, so malformed
data raises DomainError.
"""

from __future__ import annotations

from fractions import Fraction

from . import autoeq, lifts, multicurve, stabcond, tstruct
from .charges import Charge, DomainError, Phase, RationalCut, SurdCut
from .objects import (
    EXTREME,
    FormalObject,
    JHComposition,
    SemistablePiece,
    StableLabel,
    smooth,
)

SCHEMA_VERSION = 1


def _require(cond: bool, msg: str):
    if not cond:
        raise DomainError(msg)


def _is_int(v) -> bool:
    """A JSON integer; bool is an int subclass in Python but not a number here."""
    return isinstance(v, int) and not isinstance(v, bool)


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


def decode_phase(data) -> Phase:
    _require(isinstance(data, dict) and "dir" in data, "phase must have a dir")
    d = data["dir"]
    _require(
        isinstance(d, list) and len(d) == 2 and all(_is_int(v) for v in d),
        "phase dir must be [x, y] of integers",
    )
    shift = data.get("shift", 0)
    _require(_is_int(shift), "phase shift must be an integer")
    return Phase((d[0], d[1]), shift)


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


def decode_cut(data):
    _require(isinstance(data, dict) and "kind" in data, "cut must have a kind")
    if data["kind"] == "rational":
        return RationalCut(decode_phase(data["phase"]))
    if data["kind"] == "surd":
        return SurdCut(
            data["a"], data["b"], data["c"], data["D"], data.get("strip", 0)
        )
    raise DomainError(f"unknown cut kind {data['kind']!r}")


def _encode_jh(jh: JHComposition) -> list:
    out = []
    for lab, count in jh.entries:
        if lab.kind == "extreme":
            out.append(["extreme", count])
        else:
            out.append(["smooth", lab.ident, count])
    return out


def _decode_jh(data) -> JHComposition:
    _require(isinstance(data, list), "jh must be a list")
    entries = []
    for e in data:
        _require(isinstance(e, list) and len(e) >= 2, "bad jh entry")
        if e[0] == "extreme":
            entries.append((EXTREME, e[1]))
        elif e[0] == "smooth":
            _require(len(e) == 3, "smooth jh entry is [smooth, id, count]")
            entries.append((smooth(e[1]), e[2]))
        else:
            raise DomainError(f"unknown label kind {e[0]!r}")
    return JHComposition(tuple(entries))


def encode_object(x: FormalObject) -> dict:
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


def decode_object(data) -> FormalObject:
    _require(isinstance(data, dict) and "pieces" in data, "object must have pieces")
    pieces = []
    for p in data["pieces"]:
        pieces.append(
            SemistablePiece(
                decode_phase(p["phase"]), _decode_jh(p["jh"]), bool(p["perfect"])
            )
        )
    return FormalObject(tuple(pieces), data.get("indecomposable"))


def encode_word(word) -> str:
    return autoeq.word_to_string(word)


def decode_word(data) -> list:
    _require(isinstance(data, str), "word must be a string")
    return autoeq.word_from_string(data)


def encode_autoeq(g: autoeq.AutoEq) -> dict:
    return {
        "matrix": [list(row) for row in g.kmatrix],
        "anchor": encode_phase(g.anchor),
    }


def decode_autoeq(data) -> autoeq.AutoEq:
    m = data["matrix"]
    return autoeq.AutoEq(
        ((m[0][0], m[0][1]), (m[1][0], m[1][1])), decode_phase(data["anchor"])
    )


def encode_subset(spec: tstruct.StableSubsetSpec) -> dict:
    if spec.smooth_mode in ("none", "all"):
        sm = spec.smooth_mode
    else:
        sm = {spec.smooth_mode: sorted(spec.smooth_ids)}
    return {"extreme": spec.include_extreme, "smooth": sm}


def decode_subset(data) -> tstruct.StableSubsetSpec:
    _require(isinstance(data, dict), "subset spec must be an object")
    sm = data.get("smooth", "none")
    if isinstance(sm, str):
        return tstruct.StableSubsetSpec(bool(data.get("extreme", False)), sm)
    _require(isinstance(sm, dict) and len(sm) == 1, "bad smooth subset")
    mode, ids = next(iter(sm.items()))
    return tstruct.StableSubsetSpec(
        bool(data.get("extreme", False)), mode, frozenset(ids)
    )


def encode_tstructure(t: tstruct.TStructure) -> dict:
    return {"cut": encode_cut(t.cut), "minus": encode_subset(t.minus)}


def decode_tstructure(data) -> tstruct.TStructure:
    _require(isinstance(data, dict) and "cut" in data, "t-structure needs a cut")
    minus = (
        decode_subset(data["minus"]) if "minus" in data else tstruct.EMPTY_SPEC
    )
    return tstruct.TStructure(decode_cut(data["cut"]), minus)


def encode_fraction(f) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def decode_fraction(data) -> Fraction:
    try:
        return Fraction(data)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"bad rational {data!r}") from exc


def encode_gl(g: stabcond.GLPlusTilde) -> dict:
    return {
        "matrix": [[encode_fraction(e) for e in row] for row in g.matrix],
        "anchor": encode_phase(g.anchor),
    }


def decode_gl(data) -> stabcond.GLPlusTilde:
    m = data["matrix"]
    rows = [[decode_fraction(e) for e in row] for row in m]
    return stabcond.GLPlusTilde(lifts.mat(rows), decode_phase(data["anchor"]))


def encode_complex(z) -> dict:
    return {"re": encode_fraction(z[0]), "im": encode_fraction(z[1])}


def encode_multicharge(c: multicurve.MultiCharge) -> list:
    return [c.deg, c.rk1, c.rk2]


def decode_multicharge(data) -> multicurve.MultiCharge:
    _require(
        isinstance(data, list) and len(data) == 3, "multi-charge is [deg, rk1, rk2]"
    )
    return multicurve.MultiCharge(data[0], data[1], data[2])


def encode_declared(obj: multicurve.DeclaredObject) -> dict:
    return {
        "charge": encode_multicharge(obj.charge),
        "quotients": [encode_multicharge(q) for q in obj.quotients],
    }


def decode_declared(data) -> multicurve.DeclaredObject:
    _require(isinstance(data, dict) and "charge" in data, "declared object needs a charge")
    return multicurve.DeclaredObject(
        decode_multicharge(data["charge"]),
        tuple(decode_multicharge(q) for q in data.get("quotients", [])),
    )
