"""Command line front end.

Every subcommand is one row of ``COMMANDS``: its help, its handler and its
flags; ``tstruct`` and ``stab`` hold tables of their own.  A handler is a
thin shell over one library call.  It decodes each input through ``_in``
(inline JSON on a flag, a JSON file named by a flag, or a key of the
``--in`` document) and returns JSON data, or a ``str`` (SVG for shadows,
CSV for scans) that is written as it is.  ``_load`` reads every JSON
input: a file or ``--in -`` as UTF-8 bytes whatever the locale, a flag's
JSON as the command line's text; each refusal names its flag, file or
``--in -``.  ``main`` is the one I/O path: it joins a flag to a following
negative rational (``--t -5/4``), reads ``--in`` once, writes stdout or
``--out``, and maps errors to exit codes: 2 for malformed JSON, 3 for
domain errors, bytes that are not UTF-8, a closed ``--in -``, a file
that cannot be read or written, and a standard output that is closed or
fails, to which nothing more is written.  ``main(argv)`` is the
in-process entry and never touches the collector; ``run`` is the process
entry (``hnlab`` and ``python -m hnlab.cli``), which freezes the
collector once the output is written, so that the interpreter's exit
spends no time collecting.
``_args_from_table`` reads a well-formed argv straight from ``COMMANDS``
into the namespace argparse would build; only the argv it leaves (help,
``--version``, usage errors and a few legal spellings it does not read)
reaches ``build_parser``, which imports argparse and builds every
subcommand.  So a well-formed call loads neither argparse nor the
``gettext`` and ``locale`` it imports.

A handler imports the layer modules it calls in its own body, after
decoding its inputs (a ``serialize`` decoder imports the layer whose values
it builds); this module loads only ``charges`` and ``serialize``, and
``fractions`` (with the ``decimal`` it imports) loads on the first rational
a call reads or builds.  So each process compiles and runs only its own
subcommand's layers, a subcommand on integers alone never loads
``fractions``, and malformed JSON in the first input a subcommand reads is
refused before any layer loads.  A JSON result is written as the parts
of ``serialize.json_parts``, whose concatenation is the bytes of
``json.dumps(out, indent=2)`` and in which an iterator is a list, so
``tstruct witness`` and ``tstruct epichain`` hand the writer their
chain's producer: each member is made and encoded as its slice of the
text is built, and only the text is kept.  ``main`` builds every part
before it writes any, so a result that cannot be printed writes only the
error line, and then writes them one at a time.
"""

import gc
import json
import os
import sys
from types import SimpleNamespace

from . import __version__, serialize
from .charges import DomainError, SurdCut, central_charge, mass_squared, reduced_phase, slope


def _cap(size, what):
    """Refuse a `what` of `size` past HNLAB_BOUND (10,000 unless set)."""
    try:
        bound = int(os.environ.get("HNLAB_BOUND", "10000"))
    except ValueError:
        raise DomainError("HNLAB_BOUND must be an integer") from None
    if size > bound:
        raise DomainError(f"{what} exceeds HNLAB_BOUND")


def _in(args, key, decode, required=True):
    """Decode input ``key``: its flag's value (the path of a JSON file, or
    inline JSON), else that key of the --in document.  An absent optional
    input is None."""
    value = getattr(args, key)
    if value is None:
        if key not in args.doc:
            if required:
                raise DomainError(f"missing input {key}")
            return None
        data = args.doc[key]
    else:
        data = _load(value, path=value) if os.path.isfile(value) else _load(f"--{key}", text=value)
    return decode(data)


def _load(where, path=None, text=None):
    """The JSON value of one input: ``text``, a flag's inline JSON as the
    interpreter decoded it from argv, else the bytes of the file at ``path``
    or of standard input (the text of one that holds no bytes, such as an
    io.StringIO), read as strict UTF-8 whatever the locale.  Each refusal
    names ``where``, the flag, the path or ``--in -``: JSONDecodeError for
    malformed JSON, DomainError for bytes that are not UTF-8, a closed
    standard input, an integer past the interpreter's digit limit (the one
    other ValueError of json.loads) or nesting past its recursion limit."""
    if path is not None:
        with open(path, "rb") as fh:
            text = fh.read()
    elif text is None:
        if sys.stdin is None:
            raise DomainError(f"{where}: standard input is closed")
        try:
            text = getattr(sys.stdin, "buffer", sys.stdin).read()
        except (OSError, ValueError) as exc:  # a failed read, or a stream closed since
            raise DomainError(f"{where}: {exc}") from None
    try:
        return json.loads(text.decode("utf-8") if text.__class__ is bytes else text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{where}: {exc.msg}", exc.doc, exc.pos) from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{where}: {exc}") from None
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        raise DomainError(f"{where}: an integer has more than {limit} decimal digits, "
                          "the interpreter's limit for reading integers") from None
    except RecursionError:
        raise DomainError(f"{where}: arrays or objects nested more deeply than the "
                          "interpreter's recursion limit for reading JSON") from None


def _document(path) -> dict:
    if not path:
        return {}
    doc = _load("--in -") if path == "-" else _load(path, path=path)
    if not isinstance(doc, dict):
        raise DomainError("the --in document must be a JSON object")
    return doc


def _reduce(args):
    c = _in(args, "charge", serialize.decode_charge)
    from . import autoeq
    word, res = autoeq.reduce_to_torsion(c)
    return {"word": serialize.encode_word(word), "result": serialize.encode_charge(res)}


def _act(args):
    word = serialize.decode_word(args.word)
    from . import autoeq
    out = {"word": args.word}
    c = _in(args, "charge", serialize.decode_charge, required=False)
    if c is not None:
        out["charge"] = serialize.encode_charge(autoeq.apply_to_charge(word, c))
    p = _in(args, "phase", serialize.decode_phase, required=False)
    if p is not None:
        out["phase"] = serialize.encode_phase(autoeq.apply_to_phase(word, p))
    x = _in(args, "obj", serialize.decode_object, required=False)
    if x is not None:
        from . import objects
        out["obj"] = serialize.encode_object(objects.transform(x, word))
    return out


def _phase(args):
    c = _in(args, "charge", serialize.decode_charge)
    p = reduced_phase(c)
    mu = slope(c)
    z = central_charge(c)
    return {
        "phase": serialize.encode_phase(p),
        "slope": "inf" if mu is None else serialize.encode_fraction(mu),
        "central_charge": [z.x, z.y],
        "mass_squared": mass_squared(c),
    }


def _hom(args):
    x = _in(args, "x", serialize.decode_object)
    y = _in(args, "y", serialize.decode_object)
    from . import objects
    v = objects.hom_verdict(x, y)
    out = {"verdict": v.kind, "rule": v.rule}
    if args.explain:
        rules = objects.applicable_rules(x, y)
        out["rules"] = [{"verdict": r.kind, "rule": r.rule} for r in rules]
        out["consistent"] = not {"zero", "nonzero"} <= {r.kind for r in rules}
    return out


def _spherical(args):
    x = _in(args, "obj", serialize.decode_object)
    from . import objects
    ok, reason = objects.is_spherical(x)
    return {"spherical": ok, "reason": reason}


def _connect(args):
    s1 = _in(args, "s1", serialize.decode_object)
    s2 = _in(args, "s2", serialize.decode_object)
    from . import objects
    word, relabel = objects.spherical_connect(s1, s2)
    return {"word": serialize.encode_word(word), "relabel": list(relabel) if relabel else None}


def _decode_slopes(raw):
    if not isinstance(raw, list):
        raise DomainError("slopes must be a list")
    return [serialize.decode_fraction(s) for s in raw]


def _sd(args):
    slopes = _in(args, "slopes", _decode_slopes)
    # the twisting vector has one entry per unit of each slope's denominator
    _cap(sum(s.denominator for s in slopes), "twisting vector length")
    from . import objects
    d0, ledger = objects.sd_chain(slopes)
    return {
        "d0": list(d0),
        "charge": serialize.encode_charge(objects.sd_charge(d0)),
        "ledger": serialize.encode_object(ledger),
        "warning": "stability of the default twisting vectors is unverified",
    }


def _epichain(args):
    cut = _in(args, "cut", serialize.decode_cut)
    if not isinstance(cut, SurdCut):
        raise DomainError("epi chains need an irrational cut")
    e = _in(args, "charge", serialize.decode_charge)
    _cap(args.length, "length")
    from . import tstruct
    return {"chain": map(serialize.encode_charge, tstruct._epi_members(e, cut, args.length))}


def _noetherian(args):
    t = _in(args, "t", serialize.decode_tstructure)
    from . import tstruct
    return {"noetherian": tstruct.is_noetherian(t)}


def _member(args):
    t = _in(args, "t", serialize.decode_tstructure)
    x = _in(args, "obj", serialize.decode_object)
    from . import tstruct
    return {"membership": sorted(tstruct.membership(t, x))}


def _truncate(args):
    t = _in(args, "t", serialize.decode_tstructure)
    x = _in(args, "obj", serialize.decode_object)
    from . import tstruct
    a, b = tstruct.truncate(t, x)
    return {"below": serialize.encode_object(a), "above": serialize.encode_object(b)}


def _witness(args):
    t = _in(args, "t", serialize.decode_tstructure)
    _cap(args.length, "length")
    from . import tstruct
    w = tstruct._witness_members(t, args.length)
    out = {"kind": w["kind"], "charges": map(serialize.encode_charge, w["charges"])}
    if "conjugation" in w:
        out["conjugation"] = serialize.encode_word(w["conjugation"])
    for key in ("ident", "cokernel"):
        if key in w:
            out[key] = w[key]
    if "seed" in w:
        out["seed"] = serialize.encode_charge(w["seed"])
    return out


def _decode_cond(data):
    g = serialize.decode_gl(data)
    from . import stabcond
    return stabcond.StabilityCondition(g)


def _solve(args):
    c1 = _in(args, "c1", _decode_cond)
    c2 = _in(args, "c2", _decode_cond)
    from . import stabcond
    return serialize.encode_gl(stabcond.solve_transitivity(c1, c2))


def _canon(args):
    cond = _in(args, "cond", _decode_cond)
    from . import stabcond
    tau, scale, reducer = stabcond.canonical_form(cond)
    return {
        "tau": serialize.encode_complex(tau),
        "scale": serialize.encode_complex(scale),
        "reducer": [list(r) for r in reducer],
    }


def _slice(args):
    cond = _in(args, "cond", _decode_cond)
    t = serialize.decode_fraction(args.t)
    from . import stabcond
    p = stabcond.slicing_phase(cond, t)
    return {"phase": serialize.encode_phase(p)}


def _walls(args):
    obj = _in(args, "obj", serialize.decode_declared)
    from . import multicurve
    return [
        {
            "quotient": serialize.encode_multicharge(w["quotient"]),
            "wall": list(w["wall"]),
            "unstable_side": w["unstable_side"],
        }
        for w in multicurve.walls(obj)
    ]


def _scan(args):
    obj = _in(args, "obj", serialize.decode_declared)
    step, a_max, b_max = map(serialize.decode_fraction, (args.step, args.a_max, args.b_max))
    from . import multicurve
    # an empty row is still written out, so a row costs at least one cell
    rows, cols = multicurve.grid_shape(step, a_max, b_max)
    _cap(rows * max(cols, 1), "grid size")
    grid = multicurve.wall_scan(obj, step, a_max, b_max)
    if args.format == "csv":
        return "\n".join(",".join(row) for row in grid) + "\n"
    return grid


def _shadow(args):
    x = None if args.name else _in(args, "obj", serialize.decode_object)
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
            "object": serialize.encode_object(x),
            "charge": serialize.encode_charge(objects.total_charge(x)),
            "note": objects.CATALOG_NOTES.get(name),
        }
        for name, x in sorted(objects.catalog().items())
    }


_T = ("--t", {
    "help": "t-structure JSON or a JSON file; write a path starting with '-' as --t=PATH",
})
_LENGTH = ("--length", {"type": int, "default": 5})
_IO = (
    ("--in", {"dest": "infile", "help": "JSON input document ('-' for stdin)"}),
    ("--out", {"dest": "outfile", "help": "write output to a file"}),
)

# name -> (help, handler, flags), or (help, table, dest) for a group of
# subcommands; argparse's "required" error names the dest.  A flag is a
# name or a (name, add_argument options) pair; every leaf also gets _IO.
COMMANDS = {
    "reduce": ("Euclidean reduction of a charge", _reduce, ["--charge"]),
    "act": ("apply a generator word", _act, [
        ("--word", {"required": True}), "--charge", "--phase", "--obj",
    ]),
    "phase": ("phase/slope/mass data of a charge", _phase, ["--charge"]),
    "hom": ("Hom verdict between two objects", _hom, [
        "--x", "--y",
        ("--explain", {"action": "store_true",
                       "help": "also list every applicable rule in order and whether they agree"}),
    ]),
    "spherical": ("spherical test", _spherical, ["--obj"]),
    "connect": ("word connecting two spherical objects", _connect, ["--s1", "--s2"]),
    "sd": ("chained torsion-free construction", _sd, ["--slopes"]),
    "tstruct": ("t-structure operations", {
        "member": (None, _member, [_T, "--obj"]),
        "truncate": (None, _truncate, [_T, "--obj"]),
        "noetherian": (None, _noetherian, [_T]),
        "witness": (None, _witness, [_T, _LENGTH]),
        "epichain": (None, _epichain, [_LENGTH, "--cut", "--charge"]),
    }, "tcmd"),
    "stab": ("stability condition operations", {
        "solve": (None, _solve, ["--c1", "--c2"]),
        "canon": (None, _canon, ["--cond"]),
        "slice": (None, _slice, [
            "--cond",
            ("--t", {"required": True, "help": "phase value p/q, such as -5/4"}),
        ]),
    }, "scmd"),
    "walls": ("marginal stability walls", _walls, ["--obj"]),
    "scan": ("verdict grid over the parameter quadrant", _scan, [
        "--obj",
        ("--step", {"default": "1"}),
        ("--a-max", {"default": "3"}),
        ("--b-max", {"default": "3"}),
        ("--format", {"choices": ("json", "csv"), "default": "json"}),
    ]),
    "shadow": ("SVG shadow diagram", _shadow, [
        "--obj", ("--name", {"help": "catalog entry name"}),
    ]),
    "catalog": ("list the built-in worked objects", _catalog, []),
}


def _options(flags):
    """A leaf's flags, then _IO, as (option, add_argument settings) pairs."""
    for flag in (*flags, *_IO):
        yield (flag, {}) if isinstance(flag, str) else flag


def _flags(table=COMMANDS):
    """Every flag the table declares that takes a value: all but the ones
    with an action (--explain stores True and takes none)."""
    for _, target, flags in table.values():
        if isinstance(target, dict):
            yield from _flags(target)
        else:
            yield from (option for option, settings in _options(flags) if "action" not in settings)


def _join_negative_values(argv) -> list:
    """argv with each value flag joined to a following argument that starts
    with '-' and a digit or '.', so --t -5/4 is --t=-5/4: argparse would take
    -5/4 for a flag of its own.  No flag starts so, and the flag's decoder
    reads the value or refuses it."""
    flags, out = set(_flags()), []
    for arg in argv:
        lead = arg[1:2]
        if out and out[-1] in flags and arg[:1] == "-" and (lead.isdecimal() or lead == "."):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _args_from_table(argv):
    """The namespace argparse would build for argv, read straight from the
    table, or None for any argv that is not a subcommand path followed by
    that leaf's own flags, each spelled in full as --flag VALUE (a VALUE
    starting with '-' only if it is '-'), --flag=VALUE or a bare store_true
    flag.  Help, --version, --, a prefix, a stray token, a missing or
    refused value and a missing required flag are left to argparse.  The
    last of a repeated flag wins, as in argparse."""
    args, target, dest = {}, COMMANDS, "cmd"
    while isinstance(target, dict):
        if not argv or argv[0] not in target:
            return None
        args[dest] = argv[0]
        _, target, dest = target[argv[0]]  # a leaf's row ends in its flags
        argv = argv[1:]
    spec = {}
    for option, settings in _options(dest):
        key = settings.get("dest", option[2:].replace("-", "_"))
        spec[option] = key, settings
        args[key] = settings.get("default", False if "action" in settings else None)
    tokens = iter(argv)
    for token in tokens:
        option, eq, value = token.partition("=")
        if option not in spec:
            return None
        key, settings = spec[option]
        if "action" in settings:  # store_true
            if eq:
                return None
            args[key] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and value != "-":
                return None
        try:
            value = settings.get("type", str)(value)
        except ValueError:
            return None
        if value not in settings.get("choices", (value,)):
            return None
        args[key] = value
    # a required flag has no default, so it is None until it is given
    if any(settings.get("required") and args[key] is None for key, settings in spec.values()):
        return None
    return SimpleNamespace(**args, func=target)


def _add_commands(sub, table):
    """Add the table's subcommands to sub with their flags."""
    for name, (summary, target, flags) in table.items():
        # a subcommand given no help is left out of its group's --help list
        p = sub.add_parser(name, **({} if summary is None else {"help": summary}))
        if isinstance(target, dict):
            _add_commands(p.add_subparsers(dest=flags, required=True), target)
            continue
        for option, settings in _options(flags):
            p.add_argument(option, **settings)
        p.set_defaults(func=target)


def build_parser():
    """The argparse parser of every subcommand: it reads the argv that
    _args_from_table leaves to it, and writes help, version and usage errors."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="hnlab",
        description="Exact charge/phase/stability computations on a genus-one curve",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add_commands(ap.add_subparsers(dest="cmd", required=True), COMMANDS)
    return ap


def _too_many_digits(exc) -> bool:
    """Whether exc is the interpreter refusing to print an integer past its
    digit limit: that error's text is the same for every such integer (the
    one for reading a long integer differs), so one refused print shows it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or isinstance(exc, DomainError):
        return False
    try:
        probe = str(10**limit)  # limit + 1 digits, so the print is refused
    except ValueError as refused:
        probe = str(refused)
    return probe == str(exc)


def _print(parts, code) -> int:
    """Write parts to standard output and flush it, then return code; or
    return 3 when standard output is closed or fails (a pipe whose reader
    has gone, a full device).  A failed stream's descriptor is pointed at
    os.devnull, so that nothing more reaches the failed output and the
    interpreter's flush at exit, of what the stream still buffers, neither
    fails nor prints a message."""
    if sys.stdout is None:  # a process started with descriptor 1 closed
        return 3
    try:
        sys.stdout.writelines(parts)
        sys.stdout.flush()
    except OSError:
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # a stream with no descriptor, such as io.StringIO
            return 3
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 3
    return code


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    args = _args_from_table(argv) or build_parser().parse_args(argv)
    try:
        args.doc = _document(args.infile)
        out = args.func(args)
        parts = [out] if isinstance(out, str) else serialize.json_parts(out) + ["\n"]
        if args.outfile:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.writelines(parts)
            return 0
    except json.JSONDecodeError as exc:
        error, code = f"malformed JSON: {exc}", 2
    except (ValueError, OSError) as exc:
        # DomainError is a ValueError; an OSError names the file it failed on
        error, code = str(exc), 3
        if _too_many_digits(exc):
            error = (f"the output holds an integer of more than {sys.get_int_max_str_digits()} "
                     "decimal digits, the interpreter's limit for printing integers")
    else:
        return _print(parts, 0)
    return _print([json.dumps({"error": error}) + "\n"], code)


def run() -> int:
    """The process entry: main, then every live object moved to the
    collector's permanent generation, which the collections at interpreter
    exit skip.  The process ends right after, and the OS frees its memory."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
