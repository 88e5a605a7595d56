"""Deterministic SVG pictures of shadows on the slice diagram.

The horizontal axis carries the phase, decreasing from left to right;
vertical slices at integer phases are drawn as solid lines and labelled.
Extreme stable objects sit on the dashed top line; other stable objects
get a vertical slot from a stable hash of their identifier.  Coordinates
come from exact rational arithmetic (a taxicab angle proxy replaces the
true angle, which preserves order and integer slices), so the output is
byte-identical across platforms.  Each coordinate is an integer pair
(num, den) and prints as num / den, which is correctly rounded.  A slice
sits at an integer pixel below the width, printed directly with two zero
decimals, as num / den prints it for any integer below 2**53; each slice's
line and label are one string.  The slot is the CRC-32 of the
identifier's bytes modulo the band height: `binascii`, which every
CPython has built in, computes it in C in time linear in the identifier,
and no process that draws shadows loads `hashlib` and its OpenSSL library.
"""

from __future__ import annotations

import binascii

from .charges import DomainError, Phase
from .objects import FormalObject

UNIT = 240  # pixels per phase strip
MARGIN = 40
AXIS_Y = 200
EXTREME_Y = 60
BAND_TOP = 100
BAND_HEIGHT = 80


def _proxy(p: Phase) -> tuple[int, int]:
    """Monotone rational surrogate of the phase value, as (num, den) with
    den = 2(|x| + y) for the direction (x, y).

    Agrees with the true value at quarter turns and at integers, and is
    strictly increasing, which is all the picture needs.
    """
    x, y = p.dir
    den = 2 * (abs(x) + y)  # 2 at the torsion direction (-1, 0), whose value is shift + 1
    return p.shift * den + y - 2 * min(x, 0), den


def _slot(label) -> int:
    if label.kind == "extreme":
        return EXTREME_Y
    return _band_slot(label.ident)


def _band_slot(ident: str) -> int:
    """The band row of a smooth label, from the CRC-32 of its identifier.

    A lone surrogate, which a JSON string may hold, is encoded as itself
    (surrogatepass); every other identifier gets its UTF-8 bytes."""
    return BAND_TOP + binascii.crc32(ident.encode("utf-8", "surrogatepass")) % BAND_HEIGHT


def _fmt(v: tuple[int, int]) -> str:
    num, den = v
    # int / int rounds correctly, as Fraction.__float__ does
    return f"{num / den:.2f}"


def shadow_svg(x: FormalObject) -> str:
    """Deterministic SVG of the shadow of one formal object."""
    if not x.pieces:
        raise DomainError("empty object has no shadow")
    values = [_proxy(p.phase) for p in x.pieces]
    hi = values[0][0] // values[0][1] + 1
    lo, rem = divmod(*values[-1])
    if not rem:
        lo -= 1
    width = 2 * MARGIN + (hi - lo) * UNIT

    def px(v: tuple[int, int]) -> tuple[int, int]:
        # larger phase on the left
        num, den = v
        return (MARGIN + hi * UNIT) * den - num * UNIT, den

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="240" viewBox="0 0 {width} 240">',
        f'<rect width="{width}" height="240" fill="white"/>',
        f'<line x1="0" y1="{AXIS_Y}" x2="{width}" y2="{AXIS_Y}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="0" y1="{EXTREME_Y}" x2="{width}" y2="{EXTREME_Y}" '
        'stroke="black" stroke-width="1" stroke-dasharray="6 4"/>',
    ]
    for n in range(lo, hi + 1):
        # px((n, 1)), an integer below the width, printed as _fmt prints it
        xpix = f"{MARGIN + (hi - n) * UNIT}.00"
        lines.append(
            f'<line x1="{xpix}" y1="{EXTREME_Y - 20}" x2="{xpix}" '
            f'y2="{AXIS_Y}" stroke="black" stroke-width="2"/>\n'
            f'<text x="{xpix}" y="{AXIS_Y + 20}" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{n}</text>'
        )
    points = []  # one representative per piece, for the connecting polyline
    dots = []
    for p, v in zip(x.pieces, values):
        xp = _fmt(px(v))
        slots = sorted([_slot(lab) for lab, _ in p.jh.entries])
        dots += [f'<circle cx="{xp}" cy="{s}" r="5" fill="black"/>' for s in slots]
        points.append(f"{xp},{slots[0]}")
    if len(points) > 1:
        path = " ".join(points)
        lines.append(
            f'<polyline points="{path}" fill="none" stroke="black" '
            'stroke-width="2"/>'
        )
    lines += dots
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
