"""twist-large: the group layer at input sizes swept from 8 to 4096 bits.

Charges are built from a shuffled, fixed mix of continued-fraction digits
1-4, so that every charge of b bits has the same digit count and digit sum
and its reduction word about the same length; a second family plants one
digit of 2^8 to 2^14 among small ones.  Large group elements and stability
conditions are products of random twist powers, built by the benchmark's
own integer arithmetic, so hnlab sees only the finished inputs.  Each
operation family stops at the size where today's code needs about half a
second per call.  Lifts of large elements hit RecursionError on many inputs
today; those inputs stay in, and the failures count in fail_share.
"""

from __future__ import annotations

import math
from fractions import Fraction

import oracle as O
import wl_object as W
from harness import Op
from hnlab import autoeq, objects, stabcond
from hnlab.charges import Charge, Phase

NAME = "twist-large"
SETUP = "import hnlab.autoeq, hnlab.objects, hnlab.stabcond"
# Cycles per second of --seconds, untraced and traced (a traced cycle runs
# every operation twice, once under the tracer).
CYCLES_PER_S = 0.3
TRACED_CYCLES_PER_S = 0.1
CLI_LAYER = False

# Sizes in bits per operation family and cycle; a size listed twice runs
# twice.  Small sizes repeat so that the latency distribution is dense around
# its median.  Each family stops where one call costs roughly 0.5 s today.
# invert and solve_transitivity fail with RecursionError on about half of
# their inputs from 16 bits on, and a failed call costs 0.06-1 s against
# about 1 ms for a successful one, so they run few times a cycle and stop at
# 512 bits; otherwise the count of failures would decide a run's total time.
_SMALL = (8, 8, 8, 8, 32, 32, 128, 128)
PLAN = {
    "reduce": _SMALL + (512, 2048, 4096),  # each followed by normal_form up to 2048
    "map_phase_to_one": _SMALL + (512, 2048),
    "spherical_connect": _SMALL + (512, 1024),
    "lift_phase": _SMALL + (512, 2048),
    "compose": _SMALL + (512, 2048),
    "invert": (8, 8, 32, 512),
    "canonical_form": _SMALL + (512, 2048),
    "solve_transitivity": (8, 8, 32, 512),
    "slicing_phase": _SMALL + (512, 2048),
}
NORMAL_FORM_CAP = 2048
TINY_BITS = 16
PLANTED = (8, 10, 12, 14)


def cf_digits(rng, count):
    """`count` continued-fraction digits: a shuffled, fixed mix of 1, 2, 3, 4,
    so that inputs of one size differ in order but not in digit sum."""
    digits = ([1, 2, 3, 4] * (count // 4 + 1))[:count]
    rng.shuffle(digits)
    return digits


def cf_charge(rng, bits):
    """Random-signed charge (q, p) whose p/q has about `bits` bits (one digit
    of the mix adds about 1.4 bits)."""
    return charge_of_digits(rng, cf_digits(rng, max(2, round(bits / 1.4))))


def charge_of_digits(rng, digits):
    p0, q0, p1, q1 = 1, 0, 0, 1
    for a in digits:
        p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
    return rng.choice((1, -1)) * q0, rng.choice((1, -1)) * p0


def planted_charge(rng, exp):
    digits = cf_digits(rng, 24)
    digits[rng.randint(4, 19)] = 2 ** exp
    return charge_of_digits(rng, digits)


def element_tokens(rng, bits):
    """Random twist-power word whose plane matrix has entries of about `bits` bits."""
    tokens, m = [], ((1, 0), (0, 1))
    while max(abs(e) for row in m for e in row).bit_length() < bits:
        for base in ("TK", "TO"):
            t = (base, rng.choice((1, -1)) * rng.randint(1, 4))
            tokens.append(t)
            m = O.mul(O.plane_power(*t), m)
        if rng.random() < 0.2:
            tokens.append(("S", 1))
            m = ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))
    return tokens, m


def element(tokens, plane):
    return autoeq.AutoEq(O.plane_to_kmat(plane), Phase(*O.act_phase(tokens, O.HALF)))


def condition(rng, tokens, plane):
    lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    mat = tuple(tuple(lam * e for e in row) for row in plane)
    anchor = Phase(*O.act_phase(tokens, O.HALF))
    return lam, stabcond.StabilityCondition(stabcond.GLPlusTilde(mat, anchor))


def _check_reduce(c):
    def check(res):
        word, out = res
        x, y = O.apply(O.word_plane(O.runs(word)), (-c.deg, c.rk))
        O.expect((x, y) == (-out.deg, out.rk), "word does not carry the charge to the result")
        O.expect(out.rk == 0 and abs(out.deg) == math.gcd(c.rk, c.deg), "result not (0, +-gcd)")
    return check


def _reduce_then_normal_form(family, c, with_normal_form):
    c = Charge(*c)
    op = Op("reduce" + family, lambda: autoeq.reduce_to_torsion(c), _check_reduce(c))
    yield op
    if with_normal_form and op.result is not None:
        word = op.result[0]
        yield Op("normal_form" + family, lambda: autoeq.normal_form(word),
                 lambda g: O.check_element(g, O.runs(word)))


def _ops(family, rng, bits):
    if family == "reduce":
        rk, deg = cf_charge(rng, bits)
        k = rng.randint(1, 3)
        yield from _reduce_then_normal_form("", (k * rk, k * deg), bits <= NORMAL_FORM_CAP)
    elif family == "map_phase_to_one":
        p = O.phase_of_charge(*cf_charge(rng, bits), rng.randint(-2, 2))
        yield Op(family, lambda: autoeq.map_phase_to_one(Phase(*p)),
                 lambda w: O.expect(O.act_phase(O.runs(w), p) == O.ONE, "phase not sent to 1"))
    elif family == "spherical_connect":
        p1 = O.phase_of_charge(*cf_charge(rng, bits), rng.randint(-2, 2))
        p2 = O.phase_of_charge(*cf_charge(rng, bits), rng.randint(-2, 2))
        ids = ("x", rng.choice(("x", "y")))
        s1, s2 = W.stable_object(p1, ids[0]), W.stable_object(p2, ids[1])

        def check_connect(res):
            word, relabel = res
            O.expect(O.act_phase(O.runs(word), p1) == p2, "word does not connect the phases")
            O.expect((relabel is None) == (ids[0] == ids[1]) and
                     (relabel is None or tuple(relabel) == ids), "wrong relabeling")
        yield Op(family, lambda: objects.spherical_connect(s1, s2), check_connect)
    elif family in ("lift_phase", "compose", "invert"):
        tg, pg = element_tokens(rng, bits)
        th, ph = element_tokens(rng, bits)
        g, h = element(tg, pg), element(th, ph)
        if family == "lift_phase":
            p = W.small_phase(rng, span=9)
            yield Op(family, lambda: autoeq.lift_phase(g, Phase(*p)),
                     lambda q: O.expect(O.as_phase(q) == O.act_phase(tg, p), "lift differs"))
        elif family == "compose":
            yield Op(family, lambda: autoeq.compose(g, h),
                     lambda r: O.check_element(r, th + tg, "compose"))
        else:
            yield Op(family, lambda: autoeq.invert(g),
                     lambda r: O.check_element(r, O.invert_runs(tg), "invert"))
    else:
        tg, pg = element_tokens(rng, bits)
        lam1, c1 = condition(rng, tg, pg)
        if family == "canonical_form":
            yield Op(family, lambda: stabcond.canonical_form(c1),
                     lambda r: O.check_canonical(r, lam1, pg))
        elif family == "slicing_phase":
            t = Fraction(rng.randint(-7, 8), 4)
            yield Op(family, lambda: stabcond.slicing_phase(c1, t),
                     lambda q: O.expect(O.as_phase(q) == O.act_phase(tg, O.phase_of_value(t)),
                                        "slicing phase differs from tracker"))
        else:
            th, ph = element_tokens(rng, bits)
            lam2, c2 = condition(rng, th, ph)

            def check_solve(r):
                ratio = lam2 / lam1
                want = tuple(tuple(ratio * e for e in row) for row in O.mul(ph, O.adjugate(pg)))
                O.expect(tuple(map(tuple, r.matrix)) == want, "solution matrix")
                O.expect(O.as_phase(r.anchor) == O.act_phase(O.invert_runs(tg) + th, O.HALF),
                         "solution anchor")
            yield Op(family, lambda: stabcond.solve_transitivity(c1, c2), check_solve)


def cycle(rng, tiny, inprocess=False):
    plan = [(f, TINY_BITS if tiny else b) for f, sizes in PLAN.items()
            for b in (sizes[:1] if tiny else sizes)]
    plan += [("planted", e) for e in (PLANTED[:1] if tiny else PLANTED)]
    rng.shuffle(plan)
    for family, size in plan:
        if family == "planted":
            yield from _reduce_then_normal_form("_planted", planted_charge(rng, size), True)
        else:
            yield from _ops(family, rng, size)
