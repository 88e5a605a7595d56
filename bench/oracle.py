"""Independent oracles for every operation the benchmark times.

Nothing here calls the hnlab function whose result it checks.  Group
elements are checked through the benchmark's own 2x2 integer products of
the fixed generator table and an exact phase tracker; t-structures through
60-digit decimal comparisons against surd cuts; the Hom rule engine and the
wall tests through small exact re-derivations.  Checks look at charges,
phases and verdicts, never at the spelling of a generator word, so a word
written in run-length form (``TK^5`` or ``("TK", 5)`` runs) passes as well.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from decimal import Decimal, localcontext
from fractions import Fraction


class OracleError(AssertionError):
    """A returned result that contradicts its oracle."""


def expect(cond, msg: str):
    if not cond:
        raise OracleError(msg)


# --- generator words -------------------------------------------------------

_TOKEN = re.compile(r"(TO|to|TK|tk|S|s)(?:\^(-?\d+))?")
_BASE = {"TO": ("TO", 1), "to": ("TO", -1), "TK": ("TK", 1), "tk": ("TK", -1),
         "S": ("S", 1), "s": ("S", -1)}


def runs(word) -> list:
    """A word as merged (generator, exponent) runs, whatever its spelling."""
    if isinstance(word, str):
        pos, items = 0, []
        while pos < len(word):
            m = _TOKEN.match(word, pos)
            expect(m is not None, f"unparseable word at {word[pos:pos + 12]!r}")
            items.append((m.group(1), int(m.group(2) or 1)))
            pos = m.end()
    else:
        items = [(w, 1) if isinstance(w, str) else (w[0], int(w[1])) for w in word]
    out = []
    for letter, n in items:
        expect(letter in _BASE, f"unknown letter {letter!r}")
        base, sign = _BASE[letter]
        if out and out[-1][0] == base:
            out[-1] = (base, out[-1][1] + sign * n)
        else:
            out.append((base, sign * n))
    return [(b, n) for b, n in out if n]


def invert_runs(tokens) -> list:
    return [(b, -n) for b, n in reversed(tokens)]


def plane_power(base: str, n: int):
    """Matrix of generator**n on plane vectors (x, y) = (-deg, rk)."""
    if base == "TK":
        return ((1, -n), (0, 1))
    if base == "TO":
        return ((1, 0), (n, 1))
    s = -1 if n % 2 else 1
    return ((s, 0), (0, s))


def mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def word_plane(tokens):
    """Plane matrix of a word; the first letter acts first."""
    m = ((1, 0), (0, 1))
    for base, n in tokens:
        m = mul(plane_power(base, n), m)
    return m


def plane_to_kmat(m):
    """The library's (rk, -deg) matrix of a plane matrix (swap conjugation)."""
    (a, b), (c, d) = m
    return ((d, c), (b, a))


def adjugate(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


# --- exact phases as (direction, shift) -------------------------------------

HALF = ((0, 1), 0)
ONE = ((-1, 0), 0)


def normalize(v):
    """Primitive direction in the sector y > 0 or (y = 0, x < 0), and a flip flag."""
    x, y = v
    if isinstance(x, Fraction) or isinstance(y, Fraction):
        x, y = Fraction(x), Fraction(y)
        den = x.denominator * y.denominator
        x, y = int(x * den), int(y * den)
    g = math.gcd(x, y)
    expect(g != 0, "zero vector")
    x, y = x // g, y // g
    if y > 0 or (y == 0 and x < 0):
        return (x, y), False
    return (-x, -y), True


def pcmp(p, q) -> int:
    if p[1] != q[1]:
        return -1 if p[1] < q[1] else 1
    (x1, y1), (x2, y2) = p[0], q[0]
    c = x1 * y2 - y1 * x2
    return -1 if c > 0 else (1 if c < 0 else 0)


def pshift(p, n):
    return (p[0], p[1] + n)


def as_phase(p):
    return (tuple(p.dir), p.shift)


def step(p, m):
    """Image of phase p under a map that moves every phase by less than one."""
    d2, flipped = normalize(apply(m, p[0]))
    # the phase's vector is (-1)**shift * dir, so the image keeps that parity
    # unless normalizing flipped it
    parity = p[1] + (1 if flipped else 0)
    for sh in (p[1] - 1, p[1], p[1] + 1):
        if (sh - parity) % 2 == 0:
            cand = (d2, sh)
            if pcmp(pshift(p, -1), cand) < 0 < pcmp(pshift(p, 1), cand):
                return cand
    raise OracleError("no lift candidate")


def act_phase(tokens, p):
    """Exact phase action of a word.  Each twist power is a shear fixing a
    line, so it moves every phase by less than one; S**n adds n."""
    for base, n in tokens:
        p = pshift(p, n) if base == "S" else step(p, plane_power(base, n))
    return p


def phase_of_charge(rk, deg, extra=0):
    d, flipped = normalize((-deg, rk))
    return (d, extra - (1 if flipped else 0))


def charge_of_phase(p, length=1):
    (x, y), s = p
    sign = -1 if s % 2 else 1
    return (sign * length * y, -sign * length * x)


_LATTICE = {Fraction(1, 4): (1, 1), Fraction(1, 2): (0, 1), Fraction(3, 4): (-1, 1),
            Fraction(1): (-1, 0)}


def phase_of_value(v):
    v = Fraction(v)
    n = math.ceil(v) - 1
    return (_LATTICE[v - n], n)


def check_element(g, tokens, what="element"):
    """An AutoEq-like (kmatrix, anchor) pair equals the word's normal form."""
    expect(tuple(map(tuple, g.kmatrix)) == plane_to_kmat(word_plane(tokens)),
           f"{what}: matrix differs from the generator product")
    expect(as_phase(g.anchor) == act_phase(tokens, HALF),
           f"{what}: anchor differs from the phase tracker")


# --- surd cuts --------------------------------------------------------------

def surd_slope(cut) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(cut.a) + Decimal(cut.b) * Decimal(cut.D).sqrt()) / Decimal(cut.c)


def in_window(cut, v) -> bool:
    """Plane vector v has phase strictly between the cut and the cut plus one."""
    s = surd_slope(cut)
    sign = 1 if cut.strip % 2 == 0 else -1
    with localcontext() as ctx:
        ctx.prec = 60
        return sign * -(Decimal(v[0]) + s * Decimal(v[1])) > 0


def cut_cmp(cut, p, up=0) -> int:
    """Sign of (cut phase + up - p) for a rational or surd cut."""
    if hasattr(cut, "phase"):
        return pcmp(pshift(as_phase(cut.phase), up), p)
    strip = cut.strip + up
    if p[1] != strip:
        return -1 if strip < p[1] else 1
    (x, y) = p[0]
    if y == 0:
        return -1
    with localcontext() as ctx:
        ctx.prec = 60
        diff = surd_slope(cut) - Decimal(-x) / Decimal(y)
    return 1 if diff > 0 else -1


def window_seed(cut, rk, deg):
    for v in ((-deg, rk), (deg, -rk)):
        if in_window(cut, v):
            return v
    return None


def check_epi_chain(chain, e, cut, length):
    expect(len(chain) == length, f"epi chain has {len(chain)} of {length} members")
    w = window_seed(cut, e.rk, e.deg)
    expect(w is not None, "seed outside the cut strip")
    for c in chain:
        f = (-c.deg, c.rk)
        expect(w[0] * f[1] - w[1] * f[0] == 1, "consecutive members do not pair to 1")
        for t in (-1, 0, 1):  # the partner is the unique member of f0 + t*w
            g = (f[0] + t * w[0], f[1] + t * w[1])
            ok = in_window(cut, g) and in_window(cut, (w[0] - g[0], w[1] - g[1]))
            expect(ok == (t == 0), "partner is not the unique one inside the window")
        w = f


# --- formal objects ---------------------------------------------------------

def view(x, shift=0):
    """A formal object as plain (phase, entries, perfect) pieces, shifted."""
    return [(pshift(as_phase(p.phase), shift), p.jh.entries, p.perfect) for p in x.pieces]


def _stable(v):
    return len(v) == 1 and sum(n for _, n in v[0][1]) == 1


def _single(v):
    return v[0][1][0][0] if len(v) == 1 and len(v[0][1]) == 1 else None


def _type_one(v):
    return len(v) == 1 and any(lab.kind == "smooth" for lab, _ in v[0][1])


def _direct(x, y, indec):
    lo, hi = x[-1][0], y[0][0]
    out = []
    if pcmp(lo, hi) > 0:
        out.append(("zero", "hn-phase-gap"))
    if pcmp(lo, hi) < 0 and pcmp(hi, pshift(lo, 1)) < 0:
        out.append(("nonzero", "open-phase-window"))
    if pcmp(lo, hi) == 0:
        if _stable(x) and _stable(y):
            same = x[0][1][0][0] == y[0][1][0][0]
            out.append(("nonzero", "equal-phase-stable-identity") if same
                       else ("zero", "equal-phase-stable-orthogonal"))
        if indec:
            if not _type_one(x) and not _type_one(y):
                out.append(("nonzero", "equal-phase-indecomposable-extreme"))
            if _single(x) is not None and _single(x) == _single(y):
                out.append(("nonzero", "equal-phase-isotypic"))
    return out


def hom_rules(x, y):
    """Every phase/stability rule for Hom(x, y), with Serre duality when one
    side is perfect: Hom(x, y) pairs with Hom(y, x[1])."""
    indec = bool(x.indecomposable and y.indecomposable)
    out = _direct(view(x), view(y), indec)
    if all(p.perfect for p in x.pieces) or all(p.perfect for p in y.pieces):
        out += [(k, "serre-dual:" + r) for k, r in _direct(view(y), view(x, 1), indec)]
    return out


def check_hom(v, x, y):
    rules = hom_rules(x, y)
    kinds = {k for k, _ in rules}
    expect(len(kinds) <= 1, f"oracle rules disagree: {rules}")
    if not rules:
        expect(v.kind == "unknown", f"verdict {v.kind} where no rule applies")
    else:
        expect(v.kind in kinds and v.rule in {r for _, r in rules},
               f"verdict {v.kind}/{v.rule} not among {rules}")


def spec_contains(spec, label) -> bool:
    if label.kind == "extreme":
        return spec.include_extreme
    mode = spec.smooth_mode
    if mode in ("none", "all"):
        return mode == "all"
    return (label.ident in spec.smooth_ids) == (mode == "only")


def _all_in(piece, spec, inside=True):
    return all(spec_contains(spec, lab) == inside for lab, _ in piece.jh.entries)


def membership(t, x) -> set:
    leq0 = geq1 = heart = True
    for p in x.pieces:
        ph = as_phase(p.phase)
        rel, rel_up = cut_cmp(t.cut, ph), cut_cmp(t.cut, ph, up=1)
        lo_ok, hi_ok = _all_in(p, t.minus, True), _all_in(p, t.minus, False)
        leq0 &= rel < 0 or (rel == 0 and lo_ok)
        geq1 &= rel > 0 or (rel == 0 and hi_ok)
        heart &= (rel < 0 < rel_up) or (rel == 0 and lo_ok) or (rel_up == 0 and hi_ok)
    return {n for n, ok in (("aisle-leq0", leq0), ("aisle-geq1", geq1), ("heart", heart)) if ok}


def _content(pieces):
    out = {}
    for p in pieces:
        for lab, n in p.jh.entries:
            key = (as_phase(p.phase), lab.kind, lab.ident)
            out[key] = out.get(key, 0) + n
    return out


def check_truncate(res, t, x):
    a, b = res
    for p in a.pieces:
        rel = cut_cmp(t.cut, as_phase(p.phase))
        expect(rel < 0 or (rel == 0 and _all_in(p, t.minus, True)), "A piece not in D<=0")
    for p in b.pieces:
        rel = cut_cmp(t.cut, as_phase(p.phase))
        expect(rel > 0 or (rel == 0 and _all_in(p, t.minus, False)), "B piece not in D>=1")
    expect(_content(a.pieces + b.pieces) == _content(x.pieces),
           "truncation does not preserve the composition factors")


def check_transform(res, x, tokens):
    expect(len(res.pieces) == len(x.pieces), "piece count changed")
    for p, q in zip(x.pieces, res.pieces):
        expect(as_phase(q.phase) == act_phase(tokens, as_phase(p.phase)), "phase moved wrongly")
        expect(q.jh == p.jh and q.perfect == p.perfect, "labels changed")


def check_svg(svg, x):
    root = ET.fromstring(svg)
    expect(root.tag.endswith("svg"), "not an svg document")
    circles = [c for c in root.iter() if c.tag.endswith("circle")]
    expect(len(circles) == sum(len(p.jh.entries) for p in x.pieces), "wrong dot count")
    xs = [float(c.get("cx")) for c in circles]
    expect(xs == sorted(xs), "dots are not in decreasing phase order")
    lines = [c for c in root.iter() if c.tag.endswith("polyline")]
    expect(len(lines) == (1 if len(x.pieces) > 1 else 0), "wrong connecting line")


def check_sd(res, slopes):
    d0, ledger = res
    slopes = sorted(Fraction(s) for s in slopes)
    got = []
    rk = deg = 0
    for p in ledger.pieces:
        ph = as_phase(p.phase)
        expect(all(l.kind == "extreme" for l, _ in p.jh.entries), "ledger factor not extreme")
        r, d = charge_of_phase(ph, sum(n for _, n in p.jh.entries))
        rk, deg = rk + r, deg + d
        got.append(Fraction(d, r))
    expect(got == slopes[::-1], "ledger slopes differ from the input")
    expect((rk, deg) == (len(d0), 1 + sum(d0)), "ledger charge differs from the twisting vector")


# --- stability conditions -----------------------------------------------------

def c_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def check_canonical(res, lam, plane):
    tau_red, scale, b = res
    inv = adjugate(plane)  # det 1, so (lam*plane)^-1 = adj/lam
    w1 = tuple(Fraction(e) / lam for e in apply(inv, (-1, 0)))
    w2 = tuple(Fraction(e) / lam for e in apply(inv, (0, 1)))
    tau = c_div(w1, w2)
    (p, q), (r, s) = b
    expect(all(isinstance(e, int) for e in (p, q, r, s)) and p * s - q * r == 1,
           "reducer not in SL(2,Z)")
    num = (p * tau[0] + q, p * tau[1])
    den = (r * tau[0] + s, r * tau[1])
    expect(tuple(tau_red) == c_div(num, den), "reduced ratio is not the reducer's image")
    re_, im = tau_red
    n2 = re_ * re_ + im * im
    expect(im > 0 and -Fraction(1, 2) < re_ <= Fraction(1, 2) and n2 >= 1
           and not (n2 == 1 and re_ < 0), "reduced ratio outside the fundamental domain")
    w2r = (r * w1[0] + s * w2[0], r * w1[1] + s * w2[1])
    expect(tuple(scale) == c_div(w2r, (Fraction(0), Fraction(1))), "scale mismatch")
    expect(scale[0] > 0 or (scale[0] == 0 and scale[1] > 0), "scale sign not normalized")


# --- two-component walls ------------------------------------------------------

def verdict_ab(obj, a, b):
    def w(c):
        return (Fraction(-c.deg), a * c.rk1 + b * c.rk2)
    wo = w(obj.charge)
    tie = False
    for q in obj.quotients:
        wq = w(q)
        s = wo[0] * wq[1] - wo[1] * wq[0]
        if s < 0:
            return "Unstable"
        tie |= s == 0
    return "StrictlySemistable" if tie else "Stable"


def check_walls(res, obj):
    got = {(q.deg, q.rk1, q.rk2): tuple(w["wall"]) for q, w in ((w["quotient"], w) for w in res)}
    c = obj.charge
    for q in obj.quotients:
        al, be = q.deg * c.rk1 - c.deg * q.rk1, q.deg * c.rk2 - c.deg * q.rk2
        key = (q.deg, q.rk1, q.rk2)
        if al * be < 0:
            expect(got.get(key) == (al, be, 0), f"missing or wrong wall for {key}")
        else:
            expect(key not in got, f"spurious wall for {key}")


def check_scan(grid, obj, step, a_max, b_max):
    step = Fraction(step)
    rows = int(Fraction(b_max) / step)
    cols = int(Fraction(a_max) / step)
    expect(len(grid) == rows and all(len(r) == cols for r in grid), "grid shape")
    for i, row in enumerate(grid):
        b = Fraction(b_max) - i * step
        for j, v in enumerate(row):
            expect(v == verdict_ab(obj, (j + 1) * step, b), "grid cell verdict")
