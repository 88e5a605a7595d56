"""Command line front end.

Every subcommand is a thin shell over one library call: inputs are JSON
(inline on a flag, from a file, from --in, or stdin), outputs are JSON on
stdout (SVG for shadows, optional CSV for scans).  Exit codes: 2 for
malformed JSON, 3 for domain errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import autoeq, multicurve, objects, render, serialize, stabcond, tstruct
from .charges import (
    Charge,
    DomainError,
    Phase,
    SurdCut,
    central_charge,
    mass_squared,
    reduced_phase,
    slope,
)


def _bound() -> int:
    try:
        return int(os.environ.get("HNLAB_BOUND", "10000"))
    except ValueError:
        raise DomainError("HNLAB_BOUND must be an integer")


def _load(value, stdin_doc=None, key=None):
    """Interpret a flag value: path to a JSON file, or inline JSON."""
    if value is None:
        if stdin_doc is not None and key is not None and key in stdin_doc:
            return stdin_doc[key]
        raise DomainError(f"missing input {key or ''}".strip())
    if isinstance(value, str) and os.path.isfile(value):
        with open(value, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(value)


def _stdin_doc(args):
    if getattr(args, "infile", None):
        if args.infile == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        if not isinstance(doc, dict):
            raise DomainError("the --in document must be a JSON object")
        return doc
    return None


def _emit(args, text: str):
    out = getattr(args, "outfile", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, data):
    _emit(args, json.dumps(data, indent=2) + "\n")


def _cmd_reduce(args):
    doc = _stdin_doc(args)
    c = serialize.decode_charge(_load(args.charge, doc, "charge"))
    word, res = autoeq.reduce_to_torsion(c)
    _emit_json(
        args,
        {"word": serialize.encode_word(word), "result": serialize.encode_charge(res)},
    )


def _cmd_act(args):
    doc = _stdin_doc(args)
    word = serialize.decode_word(args.word)
    out = {"word": args.word}
    if args.charge is not None or (doc and "charge" in doc):
        c = serialize.decode_charge(_load(args.charge, doc, "charge"))
        out["charge"] = serialize.encode_charge(autoeq.apply_to_charge(word, c))
    if args.phase is not None or (doc and "phase" in doc):
        p = serialize.decode_phase(_load(args.phase, doc, "phase"))
        out["phase"] = serialize.encode_phase(autoeq.apply_to_phase(word, p))
    if args.obj is not None or (doc and "obj" in doc):
        x = serialize.decode_object(_load(args.obj, doc, "obj"))
        out["obj"] = serialize.encode_object(objects.transform(x, word))
    _emit_json(args, out)


def _cmd_phase(args):
    doc = _stdin_doc(args)
    c = serialize.decode_charge(_load(args.charge, doc, "charge"))
    p = reduced_phase(c)
    mu = slope(c)
    z = central_charge(c)
    _emit_json(
        args,
        {
            "phase": serialize.encode_phase(p),
            "slope": "inf" if mu == float("inf") else serialize.encode_fraction(mu),
            "central_charge": [z.x, z.y],
            "mass_squared": mass_squared(c),
        },
    )


def _cmd_hom(args):
    doc = _stdin_doc(args)
    x = serialize.decode_object(_load(args.x, doc, "x"))
    y = serialize.decode_object(_load(args.y, doc, "y"))
    v = objects.hom_verdict(x, y)
    _emit_json(args, {"verdict": v.kind, "rule": v.rule})


def _cmd_spherical(args):
    doc = _stdin_doc(args)
    x = serialize.decode_object(_load(args.obj, doc, "obj"))
    ok, reason = objects.is_spherical(x)
    _emit_json(args, {"spherical": ok, "reason": reason})


def _cmd_connect(args):
    doc = _stdin_doc(args)
    s1 = serialize.decode_object(_load(args.s1, doc, "s1"))
    s2 = serialize.decode_object(_load(args.s2, doc, "s2"))
    word, relabel = objects.spherical_connect(s1, s2)
    _emit_json(
        args,
        {
            "word": serialize.encode_word(word),
            "relabel": list(relabel) if relabel else None,
        },
    )


def _cmd_sd(args):
    doc = _stdin_doc(args)
    raw = _load(args.slopes, doc, "slopes")
    if not isinstance(raw, list):
        raise DomainError("slopes must be a list")
    slopes = [serialize.decode_fraction(s) for s in raw]
    # the twisting vector has one entry per unit of each slope's denominator
    if sum(s.denominator for s in slopes) > _bound():
        raise DomainError("twisting vector length exceeds HNLAB_BOUND")
    d0, ledger = objects.sd_chain(slopes)
    _emit_json(
        args,
        {
            "d0": list(d0),
            "charge": serialize.encode_charge(objects.sd_charge(d0)),
            "ledger": serialize.encode_object(ledger),
            "warning": "stability of the default twisting vectors is unverified",
        },
    )


def _cmd_tstruct(args):
    doc = _stdin_doc(args)
    if args.tcmd == "epichain":
        cut = serialize.decode_cut(_load(args.cut, doc, "cut"))
        if not isinstance(cut, SurdCut):
            raise DomainError("epi chains need an irrational cut")
        e = serialize.decode_charge(_load(args.charge, doc, "charge"))
        if args.length > _bound():
            raise DomainError("length exceeds HNLAB_BOUND")
        chain = tstruct.epi_chain(e, cut, args.length)
        _emit_json(args, {"chain": [serialize.encode_charge(c) for c in chain]})
        return
    t = serialize.decode_tstructure(_load(args.t, doc, "t"))
    if args.tcmd == "noetherian":
        _emit_json(args, {"noetherian": tstruct.is_noetherian(t)})
    elif args.tcmd == "member":
        x = serialize.decode_object(_load(args.obj, doc, "obj"))
        _emit_json(args, {"membership": sorted(tstruct.membership(t, x))})
    elif args.tcmd == "truncate":
        x = serialize.decode_object(_load(args.obj, doc, "obj"))
        a, b = tstruct.truncate(t, x)
        _emit_json(
            args,
            {"below": serialize.encode_object(a), "above": serialize.encode_object(b)},
        )
    elif args.tcmd == "witness":
        if args.length > _bound():
            raise DomainError("length exceeds HNLAB_BOUND")
        w = tstruct.non_noetherian_witness(t, args.length)
        out = {"kind": w["kind"], "charges": [serialize.encode_charge(c) for c in w["charges"]]}
        if "conjugation" in w:
            out["conjugation"] = serialize.encode_word(w["conjugation"])
        if "ident" in w:
            out["ident"] = w["ident"]
        if "cokernel" in w:
            out["cokernel"] = w["cokernel"]
        if "seed" in w:
            out["seed"] = serialize.encode_charge(w["seed"])
        _emit_json(args, out)


def _decode_cond(value, doc, key):
    data = _load(value, doc, key)
    return stabcond.StabilityCondition(serialize.decode_gl(data))


def _cmd_stab(args):
    doc = _stdin_doc(args)
    if args.scmd == "solve":
        c1 = _decode_cond(args.c1, doc, "c1")
        c2 = _decode_cond(args.c2, doc, "c2")
        g = stabcond.solve_transitivity(c1, c2)
        _emit_json(args, serialize.encode_gl(g))
    elif args.scmd == "canon":
        cond = _decode_cond(args.cond, doc, "cond")
        tau, scale, reducer = stabcond.canonical_form(cond)
        _emit_json(
            args,
            {
                "tau": serialize.encode_complex(tau),
                "scale": serialize.encode_complex(scale),
                "reducer": [list(r) for r in reducer],
            },
        )
    elif args.scmd == "slice":
        cond = _decode_cond(args.cond, doc, "cond")
        p = stabcond.slicing_phase(cond, serialize.decode_fraction(args.t))
        _emit_json(args, {"phase": serialize.encode_phase(p)})


def _cmd_walls(args):
    doc = _stdin_doc(args)
    obj = serialize.decode_declared(_load(args.obj, doc, "obj"))
    out = []
    for w in multicurve.walls(obj):
        out.append(
            {
                "quotient": serialize.encode_multicharge(w["quotient"]),
                "wall": list(w["wall"]),
                "unstable_side": w["unstable_side"],
            }
        )
    _emit_json(args, out)


def _cmd_scan(args):
    doc = _stdin_doc(args)
    obj = serialize.decode_declared(_load(args.obj, doc, "obj"))
    step, a_max, b_max = (
        serialize.decode_fraction(v) for v in (args.step, args.a_max, args.b_max)
    )
    # an empty row is still written out, so a row costs at least one cell
    rows, cols = multicurve.grid_shape(step, a_max, b_max)
    if rows * max(cols, 1) > _bound():
        raise DomainError("grid size exceeds HNLAB_BOUND")
    grid = multicurve.wall_scan(obj, step, a_max, b_max)
    if args.format == "csv":
        _emit(args, "\n".join(",".join(row) for row in grid) + "\n")
    else:
        _emit_json(args, grid)


def _cmd_shadow(args):
    doc = _stdin_doc(args)
    if args.name:
        cat = objects.catalog()
        if args.name not in cat:
            raise DomainError(f"unknown catalog name {args.name!r}")
        x = cat[args.name]
    else:
        x = serialize.decode_object(_load(args.obj, doc, "obj"))
    _emit(args, render.shadow_svg(x))


def _cmd_catalog(args):
    cat = objects.catalog()
    _emit_json(
        args,
        {
            name: {
                "object": serialize.encode_object(x),
                "charge": serialize.encode_charge(objects.total_charge(x)),
                "note": objects.CATALOG_NOTES.get(name),
            }
            for name, x in sorted(cat.items())
        },
    )


def _add_io(p):
    p.add_argument("--in", dest="infile", help="JSON input document ('-' for stdin)")
    p.add_argument("--out", dest="outfile", help="write output to a file")


_T_HELP = "t-structure JSON; write a value starting with '-' as --t=VALUE"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hnlab",
        description="Exact charge/phase/stability computations on a genus-one curve",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("reduce", help="Euclidean reduction of a charge")
    p.add_argument("--charge")
    _add_io(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("act", help="apply a generator word")
    p.add_argument("--word", required=True)
    p.add_argument("--charge")
    p.add_argument("--phase")
    p.add_argument("--obj")
    _add_io(p)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("phase", help="phase/slope/mass data of a charge")
    p.add_argument("--charge")
    _add_io(p)
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("hom", help="Hom verdict between two objects")
    p.add_argument("--x")
    p.add_argument("--y")
    _add_io(p)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("spherical", help="spherical test")
    p.add_argument("--obj")
    _add_io(p)
    p.set_defaults(func=_cmd_spherical)

    p = sub.add_parser("connect", help="word connecting two spherical objects")
    p.add_argument("--s1")
    p.add_argument("--s2")
    _add_io(p)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("sd", help="chained torsion-free construction")
    p.add_argument("--slopes")
    _add_io(p)
    p.set_defaults(func=_cmd_sd)

    p = sub.add_parser("tstruct", help="t-structure operations")
    tsub = p.add_subparsers(dest="tcmd", required=True)
    for name in ("member", "truncate", "noetherian", "witness", "epichain"):
        q = tsub.add_parser(name)
        if name != "epichain":
            q.add_argument("--t", help=_T_HELP)
        if name in ("member", "truncate"):
            q.add_argument("--obj")
        if name in ("witness", "epichain"):
            q.add_argument("--length", type=int, default=5)
        if name == "epichain":
            q.add_argument("--cut")
            q.add_argument("--charge")
        _add_io(q)
        q.set_defaults(func=_cmd_tstruct)

    p = sub.add_parser("stab", help="stability condition operations")
    ssub = p.add_subparsers(dest="scmd", required=True)
    q = ssub.add_parser("solve")
    q.add_argument("--c1")
    q.add_argument("--c2")
    _add_io(q)
    q.set_defaults(func=_cmd_stab)
    q = ssub.add_parser("canon")
    q.add_argument("--cond")
    _add_io(q)
    q.set_defaults(func=_cmd_stab)
    q = ssub.add_parser("slice")
    q.add_argument("--cond")
    q.add_argument("--t", required=True, help="phase value p/q; write -5/4 as --t=-5/4")
    _add_io(q)
    q.set_defaults(func=_cmd_stab)

    p = sub.add_parser("walls", help="marginal stability walls")
    p.add_argument("--obj")
    _add_io(p)
    p.set_defaults(func=_cmd_walls)

    p = sub.add_parser("scan", help="verdict grid over the parameter quadrant")
    p.add_argument("--obj")
    p.add_argument("--step", default="1")
    p.add_argument("--a-max", dest="a_max", default="3")
    p.add_argument("--b-max", dest="b_max", default="3")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_io(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("shadow", help="SVG shadow diagram")
    p.add_argument("--obj")
    p.add_argument("--name", help="catalog entry name")
    _add_io(p)
    p.set_defaults(func=_cmd_shadow)

    p = sub.add_parser("catalog", help="list the built-in worked objects")
    _add_io(p)
    p.set_defaults(func=_cmd_catalog)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except json.JSONDecodeError as exc:
        sys.stdout.write(json.dumps({"error": f"malformed JSON: {exc}"}) + "\n")
        return 2
    except DomainError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}) + "\n")
        return 3
    except ValueError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}) + "\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
