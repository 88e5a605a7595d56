"""JSON I/O of the two-component layer: the multi-charge and declared
object codecs, and the handlers of ``walls`` and ``scan``.  Like every
I/O module it imports no layer at load.
"""

from .serialize import _cap, _field, _in, _is_int, _require, decode_fraction


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


def _walls(args):
    obj = _in(args, "obj", decode_declared)
    from . import multicurve
    return [
        {
            "quotient": encode_multicharge(w["quotient"]),
            "wall": list(w["wall"]),
            "unstable_side": w["unstable_side"],
        }
        for w in multicurve.walls(obj)
    ]


def _scan(args):
    obj = _in(args, "obj", decode_declared)
    step, a_max, b_max = map(decode_fraction, (args.step, args.a_max, args.b_max))
    from . import multicurve
    # an empty row is still written out, so a row costs at least one cell
    rows, cols = multicurve.grid_shape(step, a_max, b_max)
    _cap(rows * max(cols, 1), "grid size")
    grid = multicurve.wall_scan(obj, step, a_max, b_max)
    if args.format == "csv":
        return "\n".join(",".join(row) for row in grid) + "\n"
    return grid
