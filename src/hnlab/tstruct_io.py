"""JSON I/O of the t-structure layer: the stable-subset and t-structure
codecs, and the handlers of ``tstruct member``, ``truncate``,
``noetherian``, ``witness`` and ``epichain``.  Like every I/O module it
imports no layer at load; ``member`` and ``truncate`` import
``objects_io`` for their object input when they read it.
"""

from .charges import DomainError, SurdCut
from .serialize import (
    _build, _cap, _field, _in, _require, decode_charge, decode_cut, encode_charge, encode_cut,
    encode_word,
)


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


def _epichain(args):
    cut = _in(args, "cut", decode_cut)
    if not isinstance(cut, SurdCut):
        raise DomainError("epi chains need an irrational cut")
    e = _in(args, "charge", decode_charge)
    _cap(args.length, "length")
    from . import tstruct
    return {"chain": map(encode_charge, tstruct._epi_members(e, cut, args.length))}


def _noetherian(args):
    t = _in(args, "t", decode_tstructure)
    from . import tstruct
    return {"noetherian": tstruct.is_noetherian(t)}


def _member(args):
    t = _in(args, "t", decode_tstructure)
    from . import objects_io
    x = _in(args, "obj", objects_io.decode_object)
    from . import tstruct
    return {"membership": sorted(tstruct.membership(t, x))}


def _truncate(args):
    t = _in(args, "t", decode_tstructure)
    from . import objects_io
    x = _in(args, "obj", objects_io.decode_object)
    from . import tstruct
    a, b = tstruct.truncate(t, x)
    return {"below": objects_io.encode_object(a), "above": objects_io.encode_object(b)}


def _witness(args):
    t = _in(args, "t", decode_tstructure)
    _cap(args.length, "length")
    from . import tstruct
    w = tstruct._witness_members(t, args.length)
    out = {"kind": w["kind"], "charges": map(encode_charge, w["charges"])}
    if "conjugation" in w:
        out["conjugation"] = encode_word(w["conjugation"])
    for key in ("ident", "cokernel"):
        if key in w:
            out[key] = w[key]
    if "seed" in w:
        out["seed"] = encode_charge(w["seed"])
    return out
