"""Shared random generators and reference oracles for the property suites."""

import math
import random
from fractions import Fraction
from functools import cmp_to_key, reduce

import pytest

from hnlab import autoeq, lifts, objects, render, stabcond, tstruct
from hnlab.autoeq import T_K, T_O
from hnlab.charges import (
    Charge,
    DomainError,
    Phase,
    SurdCut,
    _surd_sign,
    normalize_direction,
    reduced_phase,
)
from hnlab.multicurve import DeclaredObject, _forms, _verdict
from hnlab.objects import (
    EXTREME,
    FormalObject,
    JHComposition,
    SemistablePiece,
    StableLabel,
    Verdict,
    jh,
    smooth,
)
from hnlab.tstruct import _ratio_state, _window_form, _window_vector


def random_charge(rng, span=9, nonzero=True):
    while True:
        c = Charge(rng.randint(-span, span), rng.randint(-span, span))
        if not (nonzero and c.is_zero()):
            return c


def random_phase(rng, span=6, shifts=2):
    c = random_charge(rng, span)
    return reduced_phase(c, extra_shift=rng.randint(-shifts, shifts))


def random_word(rng, max_len=8):
    return [rng.choice(autoeq.LETTERS) for _ in range(rng.randint(0, max_len))]


def random_run_word(rng, runs=6, max_run=1000):
    """Word of up to `runs` maximal runs, each of 1 to `max_run` letters."""
    word = []
    for _ in range(rng.randint(1, runs)):
        word += [rng.choice(autoeq.LETTERS)] * rng.randint(1, max_run)
    return word


def twist_power_word(rng, bits):
    """Alternating TK and TO powers, with some shifts, until the word's
    matrix has `bits`-bit entries."""
    word, m = [], lifts.IDENTITY.matrix
    while max(abs(e) for row in m for e in row).bit_length() < bits:
        for base in ("TK", "TO"):
            run = [rng.choice((base, base.lower()))] * rng.randint(1, 4)
            word += run
            m = lifts.mat_mul(letter_word_matrix(run), m)
        if rng.random() < 0.2:
            word.append("S")
    return word


# Per-letter phase rules: the reference the run-wise evaluation in autoeq is
# checked against.  Only the shift and T_K have verbatim rules; T_O is
# emulated as tk o F o tk with F the quarter rotation of the central charge.

_ROT90 = ((0, -1), (1, 0))
_ROT270 = ((0, 1), (-1, 0))
_PLANE_TK = ((1, -1), (0, 1))
_PLANE_TK_INV = ((1, 1), (0, 1))


def _shear(plane, p):
    d, _ = normalize_direction(lifts.mat_apply(plane, p.dir))
    return Phase(d, p.shift)


def _half_turn_up(p):
    """Exact phase + 1/2."""
    d, _ = normalize_direction(lifts.mat_apply(_ROT90, p.dir))
    bump = 0 if p.dir[0] >= 0 else 1  # reduced value <= 1/2 iff x >= 0
    return Phase(d, p.shift + bump)


def _half_turn_down(p):
    d, _ = normalize_direction(lifts.mat_apply(_ROT270, p.dir))
    bump = -1 if p.dir[0] >= 0 else 0
    return Phase(d, p.shift + bump)


def letter_phase(letter, p):
    if letter == "S":
        return p + 1
    if letter == "s":
        return p - 1
    if letter == "TK":
        return _shear(_PLANE_TK, p)
    if letter == "tk":
        return _shear(_PLANE_TK_INV, p)
    if letter == "TO":
        return letter_phase("tk", _half_turn_up(letter_phase("tk", p)))
    if letter == "to":
        return letter_phase("TK", _half_turn_down(letter_phase("TK", p)))
    raise ValueError(letter)


def letters(word):
    """A word as a list of letters: bare letters stay, and a (letter, n)
    pair becomes |n| copies of the letter, case-swapped when n < 0."""
    out = []
    for item in word:
        if isinstance(item, str):
            out.append(item)
        else:
            letter, n = item
            out += [letter if n > 0 else letter.swapcase()] * abs(n)
    return out


def merge_runs(word):
    """Canonical (generator, signed exponent) runs of a word, by expanding
    it to letters and cancelling and counting neighbours one letter at a
    time."""
    stack = []
    for letter in letters(word):
        if stack and stack[-1] == letter.swapcase():
            stack.pop()
        else:
            stack.append(letter)
    out = []
    for letter in stack:
        gen, sign = letter.upper(), 1 if letter.isupper() else -1
        if out and out[-1][0] == gen:
            out[-1] = (gen, out[-1][1] + sign)
        else:
            out.append((gen, sign))
    return out


def letter_word_phase(word, p):
    """Phase action of a word, one letter at a time."""
    for letter in letters(word):
        p = letter_phase(letter, p)
    return p


# Each letter's matrix on (x, y) = (-deg, rk), written out here rather than
# read from autoeq, whose walk it checks: T_K shears x by -y, T_O shears y
# by x, and the shift negates.
LETTER_MATRICES = {
    "TK": _PLANE_TK,
    "tk": _PLANE_TK_INV,
    "TO": ((1, 0), (1, 1)),
    "to": ((1, 0), (-1, 1)),
    "S": ((-1, 0), (0, -1)),
    "s": ((-1, 0), (0, -1)),
}


def letter_word_matrix(word):
    """(x, y) matrix of a word as the product of its letters' matrices."""
    gens = (LETTER_MATRICES[l] for l in reversed(letters(word)))
    return reduce(lifts.mat_mul, gens, lifts.IDENTITY.matrix)


def plane_charge(m, c):
    """The charge whose (x, y) = (-deg, rk) is m applied to c's."""
    x, y = lifts.mat_apply(m, (-c.deg, c.rk))
    return Charge(y, -x)


# The continued-fraction loop on a signed rank: the reference for
# autoeq._reduce, which keeps the rank positive and must return the same
# word, final degree and strip moves.


def reference_reduce(r: int, d: int):
    """The continued-fraction loop of reduce_to_torsion and map_phase_to_one.

    Each step clears the degree modulo the rank with tk**q, keeping the
    remainder d0 of least magnitude (on a tie, the power of least
    magnitude), then swaps rank and degree with the quarter turn TK TO TK:
    (r, d) becomes (-d0, r).  The step writes one TK run, which merges
    tk**q, the quarter turn's first TK and the previous step's trailing TK,
    and one TO run; a final TK closes the word.

    The same loop walks the phase of the direction (-d, r) in strip 0.
    Its direction is sigma*(-d, r) for a sign sigma, and lying in the
    sector keeps sigma*r > 0.  After a step's TK run the direction is
    sigma*(-(d0 + r), r), and TO sends it to sigma*(-(d0 + r), -d0), whose
    x has the sign of -sigma*r < 0 because |d0| < |r|.  So the image leaves
    the sector exactly when sigma*d0 > 0, that is when d0 is nonzero with
    the sign of r; the walk then negates it and moves one strip up.

    Returns (word, final degree, strip moves); the walk ends at (-|d|, 0).
    """
    word, tail, shift = [], 0, 0
    while r:
        q, d0 = divmod(d, r)
        h = d0 + d0  # divmod gives d0 the sign of r, so 2|d0| > |r| is h beyond r
        if (h > r if r > 0 else h < r) or (h == r and q < 0):
            q, d0 = q + 1, d0 - r
        n = tail + 1 - q
        if n:
            word.append((T_K, n))
        if word and word[-1][0] == T_O:  # no TK run since the last step's TO
            word[-1] = (T_O, word[-1][1] + 1)
        else:
            word.append((T_O, 1))
        if d0 and (d0 > 0) == (r > 0):
            shift += 1
        r, d, tail = -d0, r, 1
    if tail:
        word.append((T_K, 1))
    return word, d, shift


# Run-power references for words whose runs are too long to expand into
# letters.  T_K**n is the shear by n, which keeps the strip; T_O**n is the
# quarter turn, then T_K**n, then the quarter turn back, since T_O is
# T_K conjugated by the quarter turn and both lifts fix phase 1/2.


def _run_items(word):
    for item in word:
        letter, n = (item, 1) if isinstance(item, str) else item
        yield letter.upper(), n if letter.isupper() else -n


def run_power_phase(word, p):
    """Phase action of a word, one run at a time in closed form."""
    for gen, n in _run_items(word):
        if gen == "S":
            p = p + n
        elif gen == "TK":
            p = _shear(((1, -n), (0, 1)), p)
        else:
            p = _half_turn_down(_shear(((1, -n), (0, 1)), _half_turn_up(p)))
    return p


def run_power_matrix(word):
    """(x, y) matrix of a word as the product of its runs' matrix powers."""
    power = {
        "TO": lambda n: ((1, 0), (n, 1)),
        "TK": lambda n: ((1, -n), (0, 1)),
        "S": lambda n: ((-1, 0), (0, -1)) if n % 2 else ((1, 0), (0, 1)),
    }
    gens = (power[gen](n) for gen, n in reversed(list(_run_items(word))))
    return reduce(lifts.mat_mul, gens, lifts.IDENTITY.matrix)


# Fraction matrices: the reference for lifts' integer ray/den arithmetic,
# which forms no Fraction inside compose, invert or central_charge_of.


def fraction_product(m, n):
    """The product m*n of two 2x2 matrices, entry by entry in Fractions."""
    return tuple(
        tuple(sum(Fraction(m[i][k]) * Fraction(n[k][j]) for k in range(2)) for j in range(2))
        for i in range(2)
    )


def fraction_inverse(m):
    """The inverse of a 2x2 matrix by Cramer's rule in Fractions."""
    (a, b), (c, d) = ((Fraction(e) for e in row) for row in m)
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


def fraction_central_charge(cond, c):
    """The inverse of the translate's Fraction matrix applied to (-deg, rk)."""
    (a, b), (e, f) = fraction_inverse(cond.translate.matrix)
    x, y = -c.deg, c.rk
    return (a * x + b * y, e * x + f * y)


def in_lowest_terms(g):
    """g's den is positive and shares no factor with all four entries of ray."""
    return g.den > 0 and math.gcd(g.den, *g.ray[0], *g.ray[1]) == 1


# Rational complex numbers as (re, im) pairs of Fractions: the reference
# for stabcond's integer canonical form, which forms neither the central
# charges nor their ratio.

def cc(re, im=0):
    return (Fraction(re), Fraction(im))


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_scale(n, a):
    return (n * a[0], n * a[1])


def c_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    if n == 0:
        raise DomainError("division by zero complex number")
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def gram_of(tau):
    """The integer Gram signature (|u|^2, <u, v>, |v|^2, Im(u * conj(v))) of
    the basis u = L*tau, v = L, for L the lcm of tau's denominators."""
    re, im = tau
    den = math.lcm(re.denominator, im.denominator)
    x, y = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
    return x * x + y * y, x * den, den * den, y * den


def fraction_canonical_form(cond):
    """canonical_form through the Fraction central charges: their ratio tau,
    the Gauss reduction of tau's own Gram, and the second reduced period
    divided by i.  Of the reducers that give the same ratio (+-b, and also
    +-S*b at tau = i), the one whose scale has x > 0 or (x = 0, y > 0), and
    at tau = i x > 0, y >= 0."""
    w1 = fraction_central_charge(cond, Charge(0, 1))
    w2 = fraction_central_charge(cond, Charge(1, 0))
    tau_red, b = stabcond._gauss_reduce(*gram_of(c_div(w1, w2)))
    candidates = [b]
    if tau_red == cc(0, 1):
        candidates.append(lifts.mat_mul(((0, -1), (1, 0)), b))
    candidates += [tuple(tuple(-e for e in row) for row in m) for m in candidates]
    picks = []
    for m in candidates:
        r, s = m[1]
        scale = c_div(c_add(c_scale(r, w1), c_scale(s, w2)), cc(0, 1))
        x, y = scale
        if (x > 0 and y >= 0) if tau_red == cc(0, 1) else (x > 0 or (x == 0 and y > 0)):
            picks.append((tau_red, scale, m))
    assert len(picks) == 1, picks
    return picks[0]


def random_jh(rng, force_extreme=False):
    entries = []
    labels = [EXTREME] + [smooth(t) for t in ("x", "y", "z")]
    if force_extreme:
        pool = [EXTREME]
    else:
        pool = labels
    chosen = rng.sample(pool, rng.randint(1, min(2, len(pool))))
    for lab in chosen:
        entries.append((lab, rng.randint(1, 3)))
    return JHComposition(tuple(entries))


def random_piece(rng, phase, force_extreme=False):
    jh = random_jh(rng, force_extreme)
    all_ext = jh.all_extreme()
    if not all_ext:
        perfect = True
    elif jh.length() == 1:
        perfect = False
    else:
        perfect = rng.random() < 0.5
    return SemistablePiece(phase, jh, perfect)


def random_object(rng, max_pieces=3, span=6):
    """Random object whose phases come from charges with entries in
    [-span, span]; a large span gives large directions."""
    n = rng.randint(1, max_pieces)
    phases = []
    seen = set()
    while len(phases) < n:
        p = random_phase(rng, span)
        key = (p.dir, p.shift)
        if key not in seen:
            seen.add(key)
            phases.append(p)
    phases.sort(key=cmp_to_key(Phase.cmp), reverse=True)
    indec = rng.random() < 0.5
    if indec and n >= 2:
        pieces = tuple(
            SemistablePiece(
                p, JHComposition(((EXTREME, rng.randint(1, 3)),)), False
            )
            for p in phases
        )
    elif indec:
        lab = rng.choice([EXTREME, smooth("x"), smooth("y")])
        count = rng.randint(1, 3)
        perfect = lab.kind == "smooth" or (count > 1 and rng.random() < 0.5)
        pieces = (
            SemistablePiece(phases[0], JHComposition(((lab, count),)), perfect),
        )
    else:
        pieces = tuple(random_piece(rng, p) for p in phases)
    return FormalObject(pieces, indec)


def rebuild_checked(v):
    """The same Phase, SurdCut, Lift or FormalObject (down to its phases and
    labels) rebuilt through the public constructors, so that every check
    runs: a value that an unchecked `_make` got wrong raises DomainError
    here or rebuilds unequal.  A Lift is rebuilt from its rational matrix,
    so a ray/den not in lowest terms rebuilds unequal too."""
    if isinstance(v, lifts.Lift):
        return lifts.Lift(v.matrix, rebuild_checked(v.anchor))
    if isinstance(v, Phase):
        return Phase(v.dir, v.shift)
    if isinstance(v, SurdCut):
        return SurdCut(v.a, v.b, v.c, v.D, v.strip)
    pieces = tuple(
        SemistablePiece(
            rebuild_checked(p.phase),
            JHComposition(tuple((StableLabel(lab.kind, lab.ident), n) for lab, n in p.jh.entries)),
            p.perfect,
        )
        for p in v.pieces
    )
    return FormalObject(pieces, v.indecomposable)


# Object-layer references: the per-cell Fraction cross product for the
# two-component verdicts, the extended gcd at every step for epi chains, and
# a Fraction comparison for surd cuts.  None of them calls the integer forms
# in multicurve, tstruct or charges.


def central_charge_ab(c, a, b):
    """Central charge (-deg, a*rk1 + b*rk2) at parameters a, b, in Fractions."""
    a, b = Fraction(a), Fraction(b)
    return (Fraction(-c.deg), a * c.rk1 + b * c.rk2)


def fraction_verdict(obj, a, b):
    """Verdict at (a, b) from the Fraction central charges' cross products."""
    w = central_charge_ab(obj.charge, a, b)
    tie = False
    for q in obj.quotients:
        v = central_charge_ab(q, a, b)
        s = w[0] * v[1] - w[1] * v[0]
        if s < 0:
            return "Unstable"
        tie = tie or s == 0
    return "StrictlySemistable" if tie else "Stable"


def fraction_scan(obj, step, a_max, b_max):
    """Verdict grid walked cell by cell in Fractions: b from b_max down by
    step while positive, a from step up by step while at most a_max."""
    step, a_max, b = Fraction(step), Fraction(a_max), Fraction(b_max)
    rows = []
    while b > 0:
        row, a = [], step
        while a <= a_max:
            row.append(fraction_verdict(obj, a, b))
            a += step
        rows.append(row)
        b -= step
    return rows


# The Fraction readers of multicurve as they were before parameters, steps
# and bounds were read once as integer pairs: the reference for
# is_semistable, grid_shape and wall_scan, whose outputs and exceptions
# must not change.


def reference_is_semistable(obj: DeclaredObject, a, b) -> str:
    """"Stable", "StrictlySemistable" or "Unstable" at (a, b).

    The object is stable when its phase is strictly below the phase of
    every declared quotient; a phase tie without any violation gives
    strict semistability.
    """
    if obj.charge.is_zero():
        raise DomainError("zero charge has no stability verdict")
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise DomainError("parameters must be positive")
    # a = p/q and b = r/s scale to the integers p*s and r*q
    return _verdict(
        _forms(obj), a.numerator * b.denominator, b.numerator * a.denominator
    )


def reference_grid_shape(step, a_max, b_max) -> tuple:
    """(rows, columns) of the scan grid: b runs down from b_max in steps
    while positive, a runs up from step while at most a_max."""
    step, a_max, b_max = Fraction(step), Fraction(a_max), Fraction(b_max)
    if step <= 0 or a_max <= 0 or b_max <= 0:
        raise DomainError("step and bounds must be positive")
    return -(-b_max // step), a_max // step


def reference_wall_scan(obj: DeclaredObject, step, a_max, b_max) -> list:
    """Row-major verdict grid over the open positive quadrant.

    Scaled by den(step) * den(b_max), a = i*step and b = b_max - j*step
    are the integers i*u and top - j*u, so a cell costs a few integer
    multiply-adds per quotient.
    """
    _, n_cols = reference_grid_shape(step, a_max, b_max)
    if n_cols and obj.charge.is_zero():
        raise DomainError("zero charge has no stability verdict")
    step, b_max = Fraction(step), Fraction(b_max)
    u = step.numerator * b_max.denominator
    top = b_max.numerator * step.denominator
    forms = _forms(obj)
    cols = range(u, n_cols * u + 1, u)
    return [[_verdict(forms, a, b) for a in cols] for b in range(top, 0, -u)]


def outcome(f, *args):
    """f(*args), or the type and text of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def surd_positive(a, b, d):
    """a + b*sqrt(d) > 0 for a non-square d > 0, by squaring."""
    if a >= 0 and b >= 0:
        return a > 0 or b > 0
    if a <= 0 and b <= 0:
        return False
    return a * a > b * b * d if a > 0 else b * b * d > a * a


def _cut_form(cut, v):
    """(A, B) with c*cross((-s, 1), v) = A + B*sqrt(D) for the cut slope
    s = (a + b*sqrt(D))/c, negated in odd strips."""
    x, y = v
    sgn = 1 if cut.strip % 2 == 0 else -1
    return -sgn * (cut.c * x + cut.a * y), -sgn * cut.b * y


def in_cut_window(cut, v):
    """v = (x, y) has phase strictly between the cut and the cut plus one."""
    return surd_positive(*_cut_form(cut, v), cut.D)


def _bezout(x, y):
    """(u, v) with u*x + v*y = 1, from a modular inverse."""
    if y == 0:
        assert abs(x) == 1
        return x, 0
    u = pow(x, -1, abs(y))
    return u, (1 - u * x) // y


def gcd_epi_chain(e, cut, length):
    """Epi chain with a fresh extended gcd at every step: f runs over
    f0 + t*w for the Bezout solution f0, and t is the one integer with f
    and w - f inside the window, found from a rational bracket of -F/W."""
    x, y = -e.deg, e.rk
    if not in_cut_window(cut, (x, y)):
        x, y = -x, -y
    assert in_cut_window(cut, (x, y))
    chain = []
    for _ in range(length):
        u, v = _bezout(x, y)
        f0 = (-v, u)
        # the window is linear in f: L(f) = A(f) + B(f)*sqrt(D), and the
        # admissible t satisfy L(f0) + t*L(w) > 0 and L(w) - L(f0) - t*L(w) > 0
        (af, bf), (aw, bw) = _cut_form(cut, f0), _cut_form(cut, (x, y))
        # |L(w)| >= 1/(|aw| + |bw|*sqrt(D)) by its norm, so twice the bit
        # length of precision keeps the bracket within one of -F/W
        bits = 2 * max(abs(n) for n in (af, bf, aw, bw, 2)).bit_length() + 64
        root = Fraction(math.isqrt(cut.D << (2 * bits)), 1 << bits)
        guess = math.floor(-(af + bf * root) / (aw + bw * root))
        ts = [
            t
            for t in range(guess - 2, guess + 3)
            if surd_positive(af + t * aw, bf + t * bw, cut.D)
            and surd_positive(aw - af - t * aw, bw - bf - t * bw, cut.D)
        ]
        assert len(ts) == 1, ts
        f = (f0[0] + ts[0] * x, f0[1] + ts[0] * y)
        chain.append((f[1], -f[0]))
        x, y = f
    return chain


def reference_epi_chain(e: Charge, cut: SurdCut, length: int) -> list:
    """epi_chain as it was before the state table: the digit walk with its
    window test on every member, the reference for the period replay."""
    if length < 1:
        raise DomainError("chain length must be positive")
    w = _window_vector(e, cut)
    g, u, v = lifts._ext_gcd(*w)
    if g != 1:
        raise DomainError("unimodular partner needs a primitive class")
    prev = (v, -u)  # cross(prev, w) = u*w[0] + v*w[1] = 1
    p, r, n = _ratio_state(cut, prev, w)
    root = math.isqrt(n)  # n = (b*c)^2*D is never a square
    chain = []
    for _ in range(length):
        # floor((p + sqrt(n))/r) is floor((p + root)/r) for r > 0 and
        # floor((p + root + 1)/r) for r < 0, which the preperiod can reach
        k = (p + root + (r < 0)) // r + 1
        p = k * r - p
        # the window test on the state: k - r = (p - sqrt(n))/r > 0 and
        # r - k + 1 = (r - p + sqrt(n))/r > 0, each multiplied by r^2
        if _surd_sign(p * r, -r, n) <= 0 or _surd_sign((r - p) * r, r, n) <= 0:
            raise DomainError("no unimodular partner found")
        r = (p * p - n) // r
        prev, w = w, (k * w[0] - prev[0], k * w[1] - prev[1])
        chain.append(Charge(w[1], -w[0]))
    return chain


def epi_states(e: Charge, cut: SurdCut, steps: int):
    """The (P, R) states that the digit walk of epi_chain visits from seed e
    in its first `steps` digits, first state first."""
    w = _window_vector(e, cut)
    _, u, v = lifts._ext_gcd(*w)
    p, r, n = _ratio_state(cut, (v, -u), w)
    root = math.isqrt(n)
    for _ in range(steps):
        yield p, r
        k = (p + root + (r < 0)) // r + 1
        p = k * r - p
        r = (p * p - n) // r


def epi_state_period(e: Charge, cut: SurdCut, cap: int = 10**5):
    """(preperiod, period) of the (P, R) states that the digit walk of
    epi_chain visits from seed e, or None if no state repeats within cap
    steps."""
    seen = {}
    for i, state in enumerate(epi_states(e, cut, cap)):
        if state in seen:
            return seen[state], i - seen[state]
        seen[state] = i
    return None


def _unimodular_partner(w, cut: SurdCut, f0=None):
    """The unique plane vector f with cross(w, f) = 1 and both f and w - f
    inside the open window.  The window condition is linear, so the family
    f0 + t*w meets it in an open unit interval with irrational endpoints,
    which contains exactly one integer.  f0 is any vector with
    cross(w, f0) = 1; without one, an extended gcd supplies it."""
    x, y = w
    if f0 is None:
        g, u0, v0 = lifts._ext_gcd(x, y)
        if g != 1:
            raise DomainError("unimodular partner needs a primitive class")
        # u0*x + v0*y = 1, so f0 = (-v0, u0) satisfies cross(w, f0) = 1
        f0 = (-v0, u0)
    aw, bw = _window_form(cut, w)
    af, bf = _window_form(cut, f0)
    # need sign((af + t*aw) + (bf + t*bw) sqrt(D)) > 0 and the same for w - f,
    # i.e. -F/W < t < 1 - F/W for F = af + bf sqrt(D) and W = aw + bw sqrt(D);
    # rationalised, -F/W = (p + q sqrt(D))/r with r > 0
    p = bf * bw * cut.D - af * aw
    q = af * bw - bf * aw
    r = aw * aw - bw * bw * cut.D
    if r < 0:
        p, q, r = -p, -q, -r
    root = math.isqrt(q * q * cut.D)  # floor(|q| sqrt(D)); never exact for q != 0
    t = (p + (root if q >= 0 else -root - 1)) // r + 1
    for _ in range(4):
        lo_ok = _surd_sign(af + t * aw, bf + t * bw, cut.D) > 0
        hi_ok = _surd_sign(aw - af - t * aw, bw - bf - t * bw, cut.D) > 0
        if lo_ok and hi_ok:
            return (f0[0] + t * x, f0[1] + t * y)
        t += 1 if not lo_ok else -1
    raise DomainError("no unimodular partner found")


def stepwise_epi_chain(e, cut, length):
    """Epi chain solved member by member: each member is the unimodular
    partner of the previous one, found from the previous-but-one member,
    negated, as the particular solution of cross(w, f) = 1.  The reference
    for the digit walk in tstruct.epi_chain, which solves for no partner:
    every member, the first included, is a digit-walk step."""
    if length < 1:
        raise DomainError("chain length must be positive")
    w = tstruct._window_vector(e, cut)
    f0 = None
    chain = []
    for _ in range(length):
        f = _unimodular_partner(w, cut, f0)
        chain.append(Charge(f[1], -f[0]))
        w, f0 = f, (-w[0], -w[1])
    return chain


def default_d_of(slope: Fraction):
    """Twisting vector (d-1, 0, ..., 0) for primitive slope d/r: the one
    objects.sd_chain uses without a d_of."""
    slope = Fraction(slope)
    r, d = slope.denominator, slope.numerator
    return (d - 1,) + (0,) * (r - 1)


def two_loop_sd_chain(slopes, d_of=default_d_of):
    """sd_chain built in two passes: check every vector's charge in slope
    order, then chain the vectors from the last slope back to the first,
    incrementing the last entry of the part already built."""
    slopes = [Fraction(s) for s in slopes]
    vectors = []
    for s in slopes:
        v = tuple(d_of(s))
        c = objects.sd_charge(v)
        prim = Charge(s.denominator, s.numerator)
        if c.rk <= 0 or c.rk % prim.rk != 0 or c != (c.rk // prim.rk) * prim:
            raise DomainError(f"twisting vector for slope {s} has the wrong charge")
        vectors.append(v)
    d0 = vectors[-1]
    for v in reversed(vectors[:-1]):
        d0 = d0[:-1] + (d0[-1] + 1,) + v
    pieces = []
    for s, v in reversed(list(zip(slopes, vectors))):
        c = objects.sd_charge(v)
        count = c.rk // s.denominator
        pieces.append(SemistablePiece(reduced_phase(c), jh((EXTREME, count)), perfect=False))
    return d0, FormalObject(tuple(pieces), indecomposable=True)


def fraction_cut_cmp(cut, p):
    """Sign of the cut's phase minus the phase p, from Fractions: strips
    first, then (a + b*sqrt(D))/c against the slope -x/y by squaring."""
    if p.shift != cut.strip:
        return -1 if cut.strip < p.shift else 1
    x, y = p.dir
    if y == 0:
        return -1
    u = Fraction(-x, y) * cut.c - cut.a  # compare b*sqrt(D) with u
    if cut.b > 0:
        return 1 if u < 0 or cut.b * cut.b * cut.D > u * u else -1
    return -1 if u > 0 or cut.b * cut.b * cut.D > u * u else 1


def shifted_applicable_rules(x, y, serre=True):
    """applicable_rules with the Serre-dual rules read off the shifted
    object shift(x, 1) itself."""
    out = list(objects._direct_rules(x, y))
    if serre and (x.is_perfect() or y.is_perfect()):
        for v in objects._direct_rules(y, objects.shift(x, 1)):
            out.append(Verdict(v.kind, f"serre-dual:{v.rule}"))
    return out


# The Fraction pipeline of render.shadow_svg: the reference for its integer
# (num, den) coordinates.

def _fraction_proxy(p):
    x, y = p.dir
    return p.shift + Fraction(y - 2 * min(x, 0), 2 * (abs(x) + y)) if y else p.shift + 1


def _fraction_fmt(v):
    return f"{float(v):.2f}"


def fraction_shadow_svg(x):
    """shadow_svg computed in Fractions: proxy values, pixel map and floats."""
    if not x.pieces:
        raise ValueError("empty object has no shadow")
    values = [_fraction_proxy(p.phase) for p in x.pieces]
    hi = values[0].__floor__() + 1
    lo = values[-1].__floor__()
    if values[-1] == lo:
        lo -= 1
    width = 2 * render.MARGIN + (hi - lo) * render.UNIT

    def px(v):
        return render.MARGIN + (hi - v) * render.UNIT

    top, axis = render.EXTREME_Y, render.AXIS_Y
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="240" viewBox="0 0 {width} 240">',
        f'<rect width="{width}" height="240" fill="white"/>',
        f'<line x1="0" y1="{axis}" x2="{width}" y2="{axis}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="0" y1="{top}" x2="{width}" y2="{top}" '
        'stroke="black" stroke-width="1" stroke-dasharray="6 4"/>',
    ]
    for n in range(lo, hi + 1):
        xpix = _fraction_fmt(px(Fraction(n)))
        lines.append(
            f'<line x1="{xpix}" y1="{top - 20}" x2="{xpix}" '
            f'y2="{axis}" stroke="black" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{xpix}" y="{axis + 20}" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{n}</text>'
        )
    points, dots = [], []
    for p, v in zip(x.pieces, values):
        xp = px(v)
        slots = sorted(render._slot(lab) for lab, _ in p.jh.entries)
        dots += [(xp, s) for s in slots]
        points.append((xp, slots[0]))
    if len(points) > 1:
        path = " ".join(f"{_fraction_fmt(a)},{b}" for a, b in points)
        lines.append(
            f'<polyline points="{path}" fill="none" stroke="black" '
            'stroke-width="2"/>'
        )
    for a, b in dots:
        lines.append(f'<circle cx="{_fraction_fmt(a)}" cy="{b}" r="5" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@pytest.fixture
def rng():
    return random.Random(20240817)
