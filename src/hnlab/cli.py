"""Command line front end.

Every subcommand is one row of ``COMMANDS``: its help, the name of its
handler and its flags; ``tstruct`` and ``stab`` hold tables of their own.
A handler is a thin shell over one library call.  It decodes each input
through ``serialize._in`` (inline JSON on a flag, a JSON file named by a
flag, or a key of the ``--in`` document) and returns JSON data, or a
``str`` (SVG for shadows, CSV for scans) that is written as it is.
``serialize._load`` reads every JSON input: a file or ``--in -`` as UTF-8
bytes whatever the locale, a flag's JSON as the command line's text; each
refusal names its flag, file or ``--in -``.
This module holds what every call runs: the table, the argv readers,
``main`` and ``run``, and the handlers of ``phase``, ``reduce`` and
``act``, which need only the kernel's and the word codecs.  Every other
handler lives with its layer's codecs in that layer's I/O module
(``objects_io``, ``tstruct_io``, ``stabcond_io``, ``multicurve_io``),
which ``main`` imports once argv is read, so a process compiles the I/O
code of its own subcommand's layers and of no other.  The readers
``_in`` and ``_load`` and the HNLAB_BOUND check ``_cap`` live in
``serialize``, which every I/O module imports: ``python -m hnlab.cli``
runs this module as ``__main__``, so importing ``hnlab.cli`` from an I/O
module would compile it a second time.
``main`` is the one I/O path: it joins a flag to a following
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
decoding its inputs (a decoder imports the layer whose values it builds),
and an I/O module imports no layer at load; this module loads only
``charges`` and ``serialize``, and ``fractions`` (with the ``decimal`` it
imports) loads on the first rational a call reads or builds.  So each
process compiles and runs only its own subcommand's layers, a
subcommand on integers alone never loads
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
import importlib
import json
import os
import sys
from types import SimpleNamespace

from . import __version__, serialize
from .charges import DomainError, central_charge, mass_squared, reduced_phase, slope
from .serialize import _in, _load


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
    x = _in(args, "obj", _decode_object, required=False)
    if x is not None:
        from . import objects, objects_io
        out["obj"] = objects_io.encode_object(objects.transform(x, word))
    return out


def _decode_object(data):
    """act's --obj, read by the object layer's codec, which loads only then."""
    from . import objects_io
    return objects_io.decode_object(data)


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


_T = ("--t", {
    "help": "t-structure JSON or a JSON file; write a path starting with '-' as --t=PATH",
})
_LENGTH = ("--length", {"type": int, "default": 5})
_IO = (
    ("--in", {"dest": "infile", "help": "JSON input document ('-' for stdin)"}),
    ("--out", {"dest": "outfile", "help": "write output to a file"}),
)

# name -> (help, handler, flags), or (help, table, dest) for a group of
# subcommands; argparse's "required" error names the dest.  A handler is
# named "module._function" for one in a layer's I/O module, which main
# imports, or "_function" for one here.  A flag is a
# name or a (name, add_argument options) pair; every leaf also gets _IO.
COMMANDS = {
    "reduce": ("Euclidean reduction of a charge", "_reduce", ["--charge"]),
    "act": ("apply a generator word", "_act", [
        ("--word", {"required": True}), "--charge", "--phase", "--obj",
    ]),
    "phase": ("phase/slope/mass data of a charge", "_phase", ["--charge"]),
    "hom": ("Hom verdict between two objects", "objects_io._hom", [
        "--x", "--y",
        ("--explain", {"action": "store_true",
                       "help": "also list every applicable rule in order and whether they agree"}),
    ]),
    "spherical": ("spherical test", "objects_io._spherical", ["--obj"]),
    "connect": ("word connecting two spherical objects", "objects_io._connect", ["--s1", "--s2"]),
    "sd": ("chained torsion-free construction", "objects_io._sd", ["--slopes"]),
    "tstruct": ("t-structure operations", {
        "member": (None, "tstruct_io._member", [_T, "--obj"]),
        "truncate": (None, "tstruct_io._truncate", [_T, "--obj"]),
        "noetherian": (None, "tstruct_io._noetherian", [_T]),
        "witness": (None, "tstruct_io._witness", [_T, _LENGTH]),
        "epichain": (None, "tstruct_io._epichain", [_LENGTH, "--cut", "--charge"]),
    }, "tcmd"),
    "stab": ("stability condition operations", {
        "solve": (None, "stabcond_io._solve", ["--c1", "--c2"]),
        "canon": (None, "stabcond_io._canon", ["--cond"]),
        "slice": (None, "stabcond_io._slice", [
            "--cond",
            ("--t", {"required": True, "help": "phase value p/q, such as -5/4"}),
        ]),
    }, "scmd"),
    "walls": ("marginal stability walls", "multicurve_io._walls", ["--obj"]),
    "scan": ("verdict grid over the parameter quadrant", "multicurve_io._scan", [
        "--obj",
        ("--step", {"default": "1"}),
        ("--a-max", {"default": "3"}),
        ("--b-max", {"default": "3"}),
        ("--format", {"choices": ("json", "csv"), "default": "json"}),
    ]),
    "shadow": ("SVG shadow diagram", "objects_io._shadow", [
        "--obj", ("--name", {"help": "catalog entry name"}),
    ]),
    "catalog": ("list the built-in worked objects", "objects_io._catalog", []),
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


def _handler(name):
    """The function a leaf names: "module._function" in a layer's I/O
    module, which this imports, or "_function" in this module."""
    module, _, function = name.rpartition(".")
    space = vars(importlib.import_module("." + module, __package__)) if module else globals()
    return space[function]


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    args = _args_from_table(argv) or build_parser().parse_args(argv)
    handler = _handler(args.func)
    try:
        args.doc = _document(args.infile)
        out = handler(args)
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
