"""JSON in and out: reading a subcommand's inputs, the field helpers,
the kernel codecs and the writer (schema version 1).

Charges are [rk, deg]; phases {"dir": [x, y], "shift": n}; generator
words are strings in run syntax, one letter per run with an optional
exponent (tk^3TOTK is TK**-3 TO TK); rational numbers travel as "p/q"
strings to stay exact.  Decoding validates through the constructors, so
malformed data raises DomainError; a missing key, a value of the wrong
type and a value that a constructor refuses below the root are reported
with their JSON path, as in "$.pieces[0].phase is missing"; a check
across an object's pieces names "$.pieces".

This module holds what every ``hnlab`` call may need: ``_load`` and
``_in``, which read a JSON input (inline on a flag, a JSON file named by
a flag, or a key of the ``--in`` document), ``_cap``, the HNLAB_BOUND
check, the field helpers, the codecs of the kernel's values (charge,
phase, cut, fraction, word, complex) and the writer.  The codecs and
subcommand handlers of the object, t-structure, stability and
multi-curve layers live in one I/O module per layer (``objects_io``,
``tstruct_io``, ``stabcond_io``, ``multicurve_io``), so a process
compiles only the I/O code of the layers its subcommand calls; each of
those codecs is still reached as ``serialize.<name>``, which imports its
module on first use.  A codec that builds a layer's values imports that
layer in its body, so this module loads only ``charges``.

``json_parts`` writes encoded data as JSON text, the bytes of
``json.dumps(data, indent=2)``, in parts that are never joined: one
string per container instead of one per token, and a list of more than
``_SLICE`` items, or an iterator, which is written as a list, a slice at
a time, so an iterator's items are made a slice at a time.  A slice
closes at ``_SLICE`` items or before its text passes ``_BUDGET``
characters, and a shorter container whose text passes ``_BUDGET`` is
split the same way, so no part passes it unless one item's text does.
The writer lives here rather than in ``cli``, which every process
compiles first: the compiler's transient memory grows with a module's
code, and the larger ``cli`` is, the higher every process's peak.
"""

import json
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii

from .charges import Charge, DomainError, Phase, RationalCut, SurdCut, _named, _rational

# bench/ reads these codecs here; the benchmark change of ROADMAP item 4 frees them for deletion
_MOVED = {
    "objects_io": ("encode_object", "decode_object"),
    "tstruct_io": ("encode_subset", "decode_subset", "encode_tstructure", "decode_tstructure"),
    "stabcond_io": ("encode_autoeq", "decode_autoeq", "encode_gl", "decode_gl"),
    "multicurve_io": ("encode_multicharge", "decode_multicharge", "encode_declared",
                      "decode_declared"),
}


def __getattr__(name):
    """A codec that lives in a layer's I/O module, imported on first use."""
    for module, names in _MOVED.items():
        if name in names:
            from importlib import import_module
            return getattr(import_module("." + module, __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def encode_word(word) -> str:
    from . import autoeq
    return autoeq.word_to_string(word)


def decode_word(data) -> list:
    from . import autoeq
    _require(isinstance(data, str), "word must be a string")
    return autoeq.word_from_string(data)


def encode_fraction(f) -> str:
    """"p/q", or the digits of an integer; f is read by charges._rational,
    so an int is printed as it is and builds no Fraction."""
    f = _rational(f)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def decode_fraction(data):
    """A rational (an int or a Fraction) from a "p/q" string or an integer,
    as JSON or as a flag, read by charges._rational, whose refusals keep
    their text; a JSON float gets its own, which says how to write the
    value."""
    if isinstance(data, float):
        raise DomainError(f'bad rational {data!r}: a JSON float is not exact; write it as "p/q"')
    return _rational(data)


def encode_complex(z) -> dict:
    return {"re": encode_fraction(z[0]), "im": encode_fraction(z[1])}


_SLICE = 256  # a list longer than this is written a slice at a time
_BUDGET = 64 * 1024  # and a slice closes before its text passes this many characters


def json_parts(data) -> list:
    """Strings whose concatenation is json.dumps(data, indent=2), byte for
    byte, where an iterator in data is written as the list of its items.
    A long list, an iterator, or a container whose text passes _BUDGET
    characters gives one string per slice of items (`_sliced`, `_runs`),
    and the text around it (its brackets and separators, and the keys and
    brackets of the containers that hold it) forms parts of its own, so a
    long document is never joined into one string.  Every other container
    is one string, joined from one string per item: json.dumps holds every
    token of the document as a string of its own until it joins them, which
    takes about four times the memory on a long list of charges.  Data is
    dicts with str keys, lists, tuples, iterators, str, int, True, False
    and None; any other value or key raises TypeError.  Strings are escaped
    to ASCII by json's own encoder and ints printed by int.__repr__, both
    as json.dumps does, so an int past the interpreter's digit limit raises
    the same ValueError, before any part is returned."""
    text = _json_value(data, "\n")
    return [text] if text.__class__ is str else text


def json_text(data) -> str:
    """json.dumps(data, indent=2), byte for byte: json_parts(data) joined."""
    return "".join(json_parts(data))


def _json_value(data, nl):
    """The text of data whose closing bracket follows `nl`, the line break
    and indent: a str, or the list of parts that `_parts` gives for a
    container.  An iterator is a list of unknown length, read once."""
    cls = data.__class__
    if cls is str:
        return encode_basestring_ascii(data)
    if cls is int:
        return int.__repr__(data)
    if data is None:
        return "null"
    if data is True:
        return "true"
    if data is False:
        return "false"
    inner = nl + "  "
    if cls is list or cls is tuple:
        if not data:
            return "[]"
        if len(data) > _SLICE:
            return _sliced(iter(data), nl)
        head, texts, tail = "[", [_json_value(v, inner) for v in data], "]"
    elif cls is dict:
        if not data:
            return "{}"
        keys = [encode_basestring_ascii(k) + ": " for k in data]
        texts = [_json_value(v, inner) for v in data.values()]
        try:
            texts = [k + t for k, t in zip(keys, texts)]
        except TypeError:  # a value was written in parts: its key is a part of its own
            texts = [k + t if t.__class__ is str else [k, *t] for k, t in zip(keys, texts)]
        head, tail = "{", "}"
    elif hasattr(cls, "__next__"):  # an iterator: a list of unknown length
        return _sliced(data, nl)
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    sep = "," + inner
    try:
        text = f"{head}{inner}{sep.join(texts)}{nl}{tail}"
    except TypeError:  # an item was written in parts
        return _parts(head, _runs(texts, sep), nl, tail)
    if len(text) <= _BUDGET:
        return text
    del text  # split the items, without holding their joined text meanwhile
    return _parts(head, _runs(texts, sep), nl, tail)


def _sliced(items, nl):
    """The text of the list of the iterator's items, read _SLICE items at a
    time (an iterator that makes its items makes them a slice at a time).
    Each slice's texts are joined into one part unless they hold a list of
    parts or pass _BUDGET characters; then `_runs` splits them."""
    inner = nl + "  "
    sep = "," + inner
    chunks = []
    while texts := [_json_value(v, inner) for v in islice(items, _SLICE)]:
        try:
            text = sep.join(texts)
        except TypeError:  # an item was written in parts
            chunks += _runs(texts, sep)
            continue
        if len(text) <= _BUDGET:
            chunks.append(text)
        else:
            del text
            chunks += _runs(texts, sep)
    return _parts("[", chunks, nl, "]")


def _parts(head, chunks, nl, tail):
    """The text of the container with the bracket head, the items whose
    texts are joined into `chunks` (strs, or lists of parts), and the
    bracket tail.  One str chunk gives one str, no chunks head + tail, and
    otherwise the parts are head, the chunks with a separator between each
    two, and tail."""
    if not chunks:
        return head + tail
    if len(chunks) == 1 and chunks[0].__class__ is str:
        return f"{head}{nl}  {chunks[0]}{nl}{tail}"
    sep = "," + nl + "  "
    parts = [head + nl + "  "]
    for chunk in chunks:
        if chunk.__class__ is str:
            parts.append(chunk)
        else:
            parts += chunk
        parts.append(sep)
    parts[-1] = nl + tail
    return parts


def _runs(texts, sep) -> list:
    """The texts, str or lists of parts, with each run of strs joined by sep
    into slices that close before their text would pass _BUDGET characters
    (so only a slice of one text can), and each list of parts as it is."""
    chunks, run, size = [], [], 0
    for text in texts:
        if text.__class__ is not str:
            if run:
                chunks.append(sep.join(run))
                run = []
            chunks.append(text)
            continue
        if run and size + len(sep) + len(text) > _BUDGET:
            chunks.append(sep.join(run))
            run = []
        size = size + len(sep) + len(text) if run else len(text)
        run.append(text)
    if run:
        chunks.append(sep.join(run))
    return chunks
