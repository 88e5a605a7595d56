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
line and label are one string.  The slot is a pure function of the
identifier, so `_band_slot` keeps the last 1,024 in a cache and SHA-256
runs once per identifier while it stays there.  The digest is computed
here in pure Python (`_sha256_hex`), so that a process drawing shadows
does not load `hashlib` and the OpenSSL library behind it (about 3.5 MB
of resident memory).  It costs about 80 us for an identifier of up to 55
bytes, and as much again for each further 64 bytes, against about 1 us
through OpenSSL.  That is paid once per new identifier: a picture with n
new short identifiers pays about 80n us, and the cached slots nothing.
"""

from __future__ import annotations

import functools

from .charges import DomainError, Phase
from .objects import FormalObject

UNIT = 240  # pixels per phase strip
MARGIN = 40
AXIS_Y = 200
EXTREME_Y = 60
BAND_TOP = 100
BAND_HEIGHT = 80

# FIPS 180-4: the first 32 bits of the fractional parts of the square roots
# of the first 8 primes, and of the cube roots of the first 64 primes
_H0 = (
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
)
_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)
_M = 0xFFFFFFFF


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of data in hex, as hashlib.sha256(data).hexdigest()."""
    n = len(data)
    data += b"\x80" + bytes(-(n + 9) % 64) + (8 * n).to_bytes(8, "big")
    h = _H0
    for i in range(0, len(data), 64):
        w = [int.from_bytes(data[j:j + 4], "big") for j in range(i, i + 64, 4)]
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            # each rotation leaves bits above bit 31, which the mask of the sum drops
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ x >> 3
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ y >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _M)
        a, b, c, d, e, f, g, k = h
        for kt, wt in zip(_K, w):
            t1 = (k + ((e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7))
                  + (e & f ^ ~e & g) + kt + wt)
            t2 = (((a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10))
                  + (a & b ^ a & c ^ b & c))
            a, b, c, d, e, f, g, k = (t1 + t2) & _M, a, b, c, (d + t1) & _M, e, f, g
        h = tuple((u + v) & _M for u, v in zip(h, (a, b, c, d, e, f, g, k)))
    return "".join(f"{u:08x}" for u in h)


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


@functools.lru_cache(maxsize=1024)
def _band_slot(ident: str) -> int:
    """The band row of a smooth label, from the SHA-256 of its identifier.

    A lone surrogate, which a JSON string may hold, is encoded as itself
    (surrogatepass); every other identifier gets its UTF-8 bytes."""
    digest = _sha256_hex(ident.encode("utf-8", "surrogatepass"))
    return BAND_TOP + int(digest[:8], 16) % BAND_HEIGHT


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
