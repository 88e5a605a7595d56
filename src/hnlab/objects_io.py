"""JSON I/O of the object layer: the JH-composition and object codecs, and
the handlers of ``hom``, ``spherical``, ``connect``, ``sd``, ``shadow``
and ``catalog``.  ``cli`` imports this module only for those subcommands
(and ``act`` for its ``--obj``), and ``tstruct_io`` only for an object
input; like every I/O module it imports no layer at load, so malformed
JSON in a call's first input is refused before ``objects`` loads.
"""

from .charges import DomainError, _named
from .serialize import (
    _build, _cap, _field, _in, _is_int, _require, decode_fraction, decode_phase, encode_charge,
    encode_phase, encode_word,
)


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


def _hom(args):
    x = _in(args, "x", decode_object)
    y = _in(args, "y", decode_object)
    from . import objects
    v = objects.hom_verdict(x, y)
    out = {"verdict": v.kind, "rule": v.rule}
    if args.explain:
        rules = objects.applicable_rules(x, y)
        out["rules"] = [{"verdict": r.kind, "rule": r.rule} for r in rules]
        out["consistent"] = not {"zero", "nonzero"} <= {r.kind for r in rules}
    return out


def _spherical(args):
    x = _in(args, "obj", decode_object)
    from . import objects
    ok, reason = objects.is_spherical(x)
    return {"spherical": ok, "reason": reason}


def _connect(args):
    s1 = _in(args, "s1", decode_object)
    s2 = _in(args, "s2", decode_object)
    from . import objects
    word, relabel = objects.spherical_connect(s1, s2)
    return {"word": encode_word(word), "relabel": list(relabel) if relabel else None}


def _decode_slopes(raw):
    if not isinstance(raw, list):
        raise DomainError("slopes must be a list")
    return [decode_fraction(s) for s in raw]


def _sd(args):
    slopes = _in(args, "slopes", _decode_slopes)
    # the twisting vector has one entry per unit of each slope's denominator
    _cap(sum(s.denominator for s in slopes), "twisting vector length")
    from . import objects
    d0, ledger = objects.sd_chain(slopes)
    return {
        "d0": list(d0),
        "charge": encode_charge(objects.sd_charge(d0)),
        "ledger": encode_object(ledger),
        "warning": "stability of the default twisting vectors is unverified",
    }


def _shadow(args):
    x = None if args.name else _in(args, "obj", decode_object)
    from . import objects, render  # only shadow needs render
    if args.name:
        cat = objects.catalog()
        if args.name not in cat:
            raise DomainError(f"unknown catalog name {args.name!r}")
        x = cat[args.name]
    # the picture draws one slice per strip between the extreme phases
    if x.pieces:
        _cap(objects.phi_plus(x).shift - objects.phi_minus(x).shift, "shadow span")
    return render.shadow_svg(x)


def _catalog(args):
    from . import objects
    return {
        name: {
            "object": encode_object(x),
            "charge": encode_charge(objects.total_charge(x)),
            "note": objects.CATALOG_NOTES.get(name),
        }
        for name, x in sorted(objects.catalog().items())
    }
