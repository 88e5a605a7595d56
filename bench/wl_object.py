"""object-small: many calls on small inputs through the kernel and object layers.

Each cycle shuffles a fixed mix of operation kinds: Hom verdicts between
random formal objects of 1-8 pieces; membership and truncation at lattice
cuts (pushed-down stable subsets, cut often placed on a piece's phase) and
at surd cuts; transforms by words of at most 4 letters; shadows; sd chains
of 5-30 slopes; two-component stability verdicts, walls and 8 x 8 scans;
epi chains of length 8-64 on four surd cuts; and small-element group
algebra.  Epi chains on those cuts fail today from length 21-32; they stay
in, as 4 of about 180 operations a cycle, so that a fix which turns them
into longer successful chains does not by itself move ops_per_s.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import oracle as O
from harness import Op
from hnlab import autoeq, multicurve, objects, render, tstruct
from hnlab.charges import Charge, Phase, RationalCut, SurdCut
from hnlab.multicurve import DeclaredObject, MultiCharge
from hnlab.objects import FormalObject, JHComposition, SemistablePiece, StableLabel

NAME = "object-small"
SETUP = "import hnlab.autoeq, hnlab.multicurve, hnlab.objects, hnlab.render, hnlab.tstruct"
# Cycles per second of --seconds, untraced and traced (a traced cycle runs
# every operation twice, once under the tracer).
CYCLES_PER_S = 15
TRACED_CYCLES_PER_S = 7
CLI_LAYER = False

MIX = {"hom_verdict": 40, "membership": 20, "truncate": 20, "transform": 15,
       "shadow_svg": 6, "sd_chain": 3, "is_semistable": 15, "walls": 8, "wall_scan": 2,
       "epi_chain": 4, "normal_form": 15, "compose": 10, "invert": 10, "lift_phase": 15}
# golden, sqrt 2, sqrt 3 and (-5 + 3 sqrt 11)/4 slopes
SURDS = ((1, 1, 2, 5), (0, 1, 1, 2), (0, 1, 1, 3), (-5, 3, 4, 11))
EXTREME = StableLabel("extreme")
SMOOTH = tuple(StableLabel("smooth", i) for i in ("x", "y", "z"))
SCAN_STEP = Fraction(1, 4)  # 8 x 8 cells over (0, 2] x (0, 2]


def small_phase(rng, span=6, shifts=2):
    while True:
        rk, deg = rng.randint(-span, span), rng.randint(-span, span)
        if rk or deg:
            return O.phase_of_charge(rk, deg, rng.randint(-shifts, shifts))


def random_jh(rng, extreme_only=False):
    pool = [EXTREME] if extreme_only else [EXTREME, *SMOOTH]
    labels = rng.sample(pool, rng.randint(1, min(2, len(pool))))
    return JHComposition(tuple((lab, rng.randint(1, 3)) for lab in labels))


def random_object(rng, max_pieces=8):
    n = rng.randint(1, max_pieces)
    phases = set()
    while len(phases) < n:
        phases.add(small_phase(rng))
    phases = sorted(phases, key=functools.cmp_to_key(O.pcmp), reverse=True)
    indec = rng.random() < 0.5
    pieces = []
    for ph in phases:
        if indec and n >= 2:
            jh, perfect = JHComposition(((EXTREME, rng.randint(1, 3)),)), False
        elif indec:
            lab, count = rng.choice([EXTREME, *SMOOTH[:2]]), rng.randint(1, 3)
            jh = JHComposition(((lab, count),))
            perfect = lab.kind == "smooth" or (count > 1 and rng.random() < 0.5)
        else:
            jh = random_jh(rng)
            perfect = not jh.all_extreme() or (jh.length() > 1 and rng.random() < 0.5)
        pieces.append(SemistablePiece(Phase(*ph), jh, perfect))
    return FormalObject(tuple(pieces), indec)


def random_tstructure(rng, x):
    if rng.random() < 0.5:
        a, b, c, d = rng.choice(SURDS)
        return tstruct.TStructure(SurdCut(a, b, c, d, rng.randint(-2, 2)))
    if rng.random() < 0.5:
        ph = rng.choice(x.pieces).phase
    else:
        ph = Phase(*small_phase(rng))
    mode = rng.choice(("none", "all", "only", "all-except"))
    ids = frozenset(rng.sample("xyz", rng.randint(0, 2))) if mode in ("only", "all-except") else frozenset()
    spec = tstruct.StableSubsetSpec(rng.random() < 0.5, mode, ids)
    return tstruct.TStructure(RationalCut(ph), spec)


def random_word(rng, max_len):
    return [rng.choice(autoeq.LETTERS) for _ in range(rng.randint(0, max_len))]


def word_element(rng):
    w = random_word(rng, 8)
    toks = O.runs(w)
    return toks, autoeq.AutoEq(O.plane_to_kmat(O.word_plane(toks)),
                               Phase(*O.act_phase(toks, O.HALF)))


def random_declared(rng, quotients=None):
    def mc():
        while True:
            c = MultiCharge(rng.randint(-6, 6), rng.randint(0, 3), rng.randint(0, 3))
            if not c.is_zero():
                return c
    charge = mc()
    n = quotients or rng.randint(1, 4)
    qs = []
    while len(qs) < n:
        q = mc()
        if q != charge:
            qs.append(q)
    return DeclaredObject(charge, tuple(qs))


def stable_object(phase, ident):
    """Stable object with one smooth factor at an exact (dir, shift) phase."""
    label = StableLabel("smooth", ident)
    return FormalObject((SemistablePiece(Phase(*phase), JHComposition(((label, 1),)), True),), True)


def positive(rng):
    return Fraction(rng.randint(1, 12), rng.randint(1, 6))


def random_slopes(rng):
    n = rng.randint(5, 30)
    slopes = set()
    while len(slopes) < n:
        q = rng.randint(2, 40)
        slopes.add(Fraction(rng.randint(1, q - 1), q))
    return sorted(slopes)


def epi_input(rng):
    a, b, c, d = rng.choice(SURDS)
    cut = SurdCut(a, b, c, d, rng.randint(-1, 1))
    while True:
        rk, deg = rng.randint(-4, 4), rng.randint(-4, 4)
        if math.gcd(rk, deg) == 1 and O.window_seed(cut, rk, deg) is not None:
            return Charge(rk, deg), cut, rng.randint(8, 64)


def make_op(kind, rng):
    if kind == "hom_verdict":
        x, y = random_object(rng), random_object(rng)
        return Op(kind, lambda: objects.hom_verdict(x, y), lambda v: O.check_hom(v, x, y))
    if kind in ("membership", "truncate"):
        x = random_object(rng)
        t = random_tstructure(rng, x)
        if kind == "membership":
            return Op(kind, lambda: tstruct.membership(t, x),
                      lambda r: O.expect(set(r) == O.membership(t, x), "membership differs"))
        return Op(kind, lambda: tstruct.truncate(t, x), lambda r: O.check_truncate(r, t, x))
    if kind == "transform":
        x, w = random_object(rng), random_word(rng, 4)
        return Op(kind, lambda: objects.transform(x, w),
                  lambda r: O.check_transform(r, x, O.runs(w)))
    if kind == "shadow_svg":
        x = random_object(rng, 4)
        return Op(kind, lambda: render.shadow_svg(x), lambda s: O.check_svg(s, x))
    if kind == "sd_chain":
        slopes = random_slopes(rng)
        return Op(kind, lambda: objects.sd_chain(slopes), lambda r: O.check_sd(r, slopes))
    if kind in ("is_semistable", "walls"):
        obj = random_declared(rng)
        if kind == "is_semistable":
            a, b = positive(rng), positive(rng)
            return Op(kind, lambda: multicurve.is_semistable(obj, a, b),
                      lambda v: O.expect(v == O.verdict_ab(obj, a, b), "verdict differs"))
        return Op(kind, lambda: multicurve.walls(obj), lambda r: O.check_walls(r, obj))
    if kind == "wall_scan":
        # One grid shape and quotient count: scans are the slowest calls here,
        # so the latency tail is theirs, and it stays put only if they cost alike.
        obj = random_declared(rng, quotients=3)
        return Op(kind, lambda: multicurve.wall_scan(obj, SCAN_STEP, 2, 2),
                  lambda g: O.check_scan(g, obj, SCAN_STEP, 2, 2))
    if kind == "epi_chain":
        e, cut, n = epi_input(rng)
        return Op(kind, lambda: tstruct.epi_chain(e, cut, n),
                  lambda r: O.check_epi_chain(r, e, cut, n))
    if kind == "normal_form":
        w = random_word(rng, 8)
        return Op(kind, lambda: autoeq.normal_form(w), lambda g: O.check_element(g, O.runs(w)))
    (tg, g), (th, h) = word_element(rng), word_element(rng)
    if kind == "compose":
        return Op(kind, lambda: autoeq.compose(g, h), lambda r: O.check_element(r, th + tg))
    if kind == "invert":
        return Op(kind, lambda: autoeq.invert(g), lambda r: O.check_element(r, O.invert_runs(tg)))
    p = small_phase(rng)
    return Op(kind, lambda: autoeq.lift_phase(g, Phase(*p)),
              lambda q: O.expect(O.as_phase(q) == O.act_phase(tg, p), "lift differs"))


def cycle(rng, tiny, inprocess=False):
    kinds = [k for k, n in MIX.items() for _ in range(1 if tiny else n)]
    rng.shuffle(kinds)
    for kind in kinds:
        yield make_op(kind, rng)
