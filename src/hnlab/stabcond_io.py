"""JSON I/O of the stability layer: the auto-equivalence and GL+ lift
codecs (a 2x2 "matrix" with an "anchor" phase), and the handlers of
``stab solve``, ``canon`` and ``slice``.  Like every I/O module it
imports no layer at load.
"""

from .serialize import (
    _build, _field, _in, _is_int, _require, decode_fraction, decode_phase, encode_complex,
    encode_fraction, encode_phase,
)


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


def _decode_cond(data):
    g = decode_gl(data)
    from . import stabcond
    return stabcond.StabilityCondition(g)


def _solve(args):
    c1 = _in(args, "c1", _decode_cond)
    c2 = _in(args, "c2", _decode_cond)
    from . import stabcond
    return encode_gl(stabcond.solve_transitivity(c1, c2))


def _canon(args):
    cond = _in(args, "cond", _decode_cond)
    from . import stabcond
    tau, scale, reducer = stabcond.canonical_form(cond)
    return {
        "tau": encode_complex(tau),
        "scale": encode_complex(scale),
        "reducer": [list(r) for r in reducer],
    }


def _slice(args):
    cond = _in(args, "cond", _decode_cond)
    t = decode_fraction(args.t)
    from . import stabcond
    p = stabcond.slicing_phase(cond, t)
    return {"phase": encode_phase(p)}
