"""Shared random generators and reference oracles for the property suites."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key, reduce

import pytest

from hnlab import autoeq, charges, lifts, objects, render, stabcond, tstruct
from hnlab.autoeq import T_K, T_O
from hnlab.charges import (
    Charge,
    DomainError,
    Phase,
    RationalCut,
    SurdCut,
    _named,
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
    _is_stable,
    _single_label,
    classify_type,
    jh,
    phi_minus,
    phi_plus,
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


# The acceptance rule of autoeq._items as it stood when it yielded one item
# at a time, kept verbatim (with its own letter table) as the oracle for
# which items a word may hold, how each one reads and how each refusal is
# worded.

_REFERENCE_SIGNED = {s: (s.upper(), 1 if s.isupper() else -1) for s in autoeq.LETTERS}


def reference_items(word):
    """A word's items as (generator, signed exponent) runs: a bare letter is
    a run of 1 and a (letter, n) pair with an int n a run of n, both
    negated for a lowercase letter; anything else is refused."""
    for item in word:
        if (isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
                and item[0] in _REFERENCE_SIGNED and type(item[1]) is int):
            gen, sign = _REFERENCE_SIGNED[item[0]]
            yield gen, sign * item[1]
        elif isinstance(item, str) and item in _REFERENCE_SIGNED:
            yield _REFERENCE_SIGNED[item]
        else:
            raise DomainError(_named("unknown generator letter", item, repr))


# One walk of a whole word, and compose by lift_phase and _lowest: the
# references for autoeq.normal_form, which multiplies leaves of its walk by
# lifts.sl2_product in a balanced tree, and for lifts.compose, which
# multiplies two twist-group elements by the same product.


def reference_normal_form(word) -> lifts.Lift:
    """Evaluate a word to its (matrix, anchor) normal form in one pass over
    its raw items, first item first: one row operation per item on the
    (x, y) matrix, and the image of phase 1/2 as (direction, strip shift).

    The image of 1/2 is sign*(b, d), (b, d) being the matrix's second
    column, so only the sign and the strip are walked.  Only a TO row
    update changes that image's y; an image that then left the sector flips
    the sign and moves one strip down if its x is positive, up if negative.
    An odd S**n negates the matrix and flips the sign, which leaves
    sign*(b, d) as it was; so the walk adds n to the shift and negates the
    matrix once at the end if the shifts sum to an odd number.  The action
    is a group action, so runs need not be merged first.
    """
    a, b, c, d, flip, moves, shift = 1, 0, 0, 1, False, 0, 0
    for gen, n in reference_items(word):
        if gen == T_K:
            a, b = a - n * c, b - n * d
        elif gen == autoeq.SHIFT:
            shift += n
        else:
            c, d = c + n * a, d + n * b
            if (d < 0 or not d and b > 0) != flip:
                moves += 1 if (b > 0) == flip else -1
                flip = not flip
    direction = (-b, -d) if flip else (b, d)
    if shift % 2:
        a, b, c, d = -a, -b, -c, -d
    # an SL(2,Z) matrix over 1 is in lowest terms, and the anchor is its image of 1/2
    return lifts.Lift._make(((a, b), (c, d)), 1, Phase._make(direction, shift + moves))


def reference_compose(g: lifts.Lift, h: lifts.Lift) -> lifts.Lift:
    """g after h."""
    # det is a product of positive ones, and g lifts h's image of 1/2
    return lifts._lowest(lifts.mat_mul(g.ray, h.ray), g.den * h.den, lifts.lift_phase(g, h.anchor))


def reference_invert(g: lifts.Lift) -> lifts.Lift:
    """The inverse element, its strip found by lift_phase on every element."""
    ((a, b), (c, d)), n = g.ray, g.den
    # the adjugate, a positive multiple of the inverse, sends (0, 1) to (-b, a);
    # g sends (-b, a) to (0, det), the direction of 1/2, so only the strip is unknown
    u, _ = normalize_direction((-b, a))
    image = lifts.lift_phase(g, Phase._make(u, 0))
    # den*adj(ray)/det(ray) is the inverse map, of determinant den^2/det(ray) > 0
    return lifts._lowest(((n * d, -n * b), (-n * c, n * a)), a * d - b * c, Phase._make(u, -image.shift))


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


def reference_rational(v) -> Fraction:
    """Fraction(v), with Fraction's refusal of a value it cannot read (a
    malformed string, a zero denominator, None) raised as the library's
    DomainError; a float, which holds a binary value rather than the one
    written, and a bool are refused with the same text."""
    if isinstance(v, (bool, float)):
        raise DomainError(f"bad rational {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise DomainError(f"bad rational {v!r}") from None


# The Fraction-keyed Phase.from_value and the Fraction-compared canonical_form
# that the integer ones replaced, kept verbatim as references but for
# reading the value by reference_rational.

def reference_from_value(v) -> Phase:
    v = reference_rational(v)
    n = math.ceil(v) - 1
    r = v - n
    dirs = {
        Fraction(1, 4): (1, 1),
        Fraction(1, 2): (0, 1),
        Fraction(3, 4): (-1, 1),
        Fraction(1): (-1, 0),
    }
    if r not in dirs:
        raise DomainError(f"value {v} is not the phase of a lattice ray")
    return Phase(dirs[r], n)


_I = (Fraction(0), Fraction(1))


def reference_canonical_form(cond):
    (a, b), (c, d) = cond.translate.ray
    det = a * d - b * c
    g, e, h = stabcond._hermite_basis((-d, c), (-b, a), det)
    tau_red, ((p, q), (r, s)) = stabcond._gauss_reduce(g * g + e * e, -e * h, h * h, det)
    (x1, y1), (x2, y2) = (p * g, p * e - q * h), (r * g, r * e - s * h)
    m = (((-x1 * a - y1 * b) // det, (x1 * c + y1 * d) // det),
         ((-x2 * a - y2 * b) // det, (x2 * c + y2 * d) // det))
    x, y = y2, -x2  # the second reduced vector over i
    if tau_red == _I and (x <= 0 < y or y < 0 <= x):
        (p, q), (r, s) = m
        m = ((-r, -s), (p, q))
        x, y = -y, x
    if x < 0 or (x == 0 and y < 0):
        m = tuple(tuple(-e for e in row) for row in m)
        x, y = -x, -y
    k = cond.translate.den
    return tau_red, (Fraction(k * x, det), Fraction(k * y, det)), m


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
# must not change, but for reading a value by reference_rational.


def reference_is_semistable(obj: DeclaredObject, a, b) -> str:
    """"Stable", "StrictlySemistable" or "Unstable" at (a, b).

    The object is stable when its phase is strictly below the phase of
    every declared quotient; a phase tie without any violation gives
    strict semistability.
    """
    if obj.charge.is_zero():
        raise DomainError("zero charge has no stability verdict")
    a, b = reference_rational(a), reference_rational(b)
    if a <= 0 or b <= 0:
        raise DomainError("parameters must be positive")
    # a = p/q and b = r/s scale to the integers p*s and r*q
    return _verdict(
        _forms(obj), a.numerator * b.denominator, b.numerator * a.denominator
    )


def reference_grid_shape(step, a_max, b_max) -> tuple:
    """(rows, columns) of the scan grid: b runs down from b_max in steps
    while positive, a runs up from step while at most a_max."""
    step, a_max, b_max = (reference_rational(v) for v in (step, a_max, b_max))
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
    if length.__class__ is not int:
        raise DomainError("chain length must be an integer")
    if length < 1:
        raise DomainError("chain length must be positive")
    if e.is_zero():  # the window vector is a nonzero charge's
        raise DomainError("phase undefined on zero class")
    w = _window_vector(e, cut)
    g, u, v = charges._ext_gcd(*w)
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
    _, u, v = charges._ext_gcd(*w)
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
        g, u0, v0 = charges._ext_gcd(x, y)
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
    if e.is_zero():  # the window vector is a nonzero charge's
        raise DomainError("phase undefined on zero class")
    w = tstruct._window_vector(e, cut)
    f0 = None
    chain = []
    for _ in range(length):
        f = _unimodular_partner(w, cut, f0)
        chain.append(Charge(f[1], -f[0]))
        w, f0 = f, (-w[0], -w[1])
    return chain


def two_loop_sd_chain(slopes):
    """sd_chain built in two passes: the block (d-1, 0, ..., 0) of length r
    for every primitive slope d/r, in slope order; then the blocks chained
    from the last slope back to the first, incrementing the last entry of
    the part already built.  Each piece's phase is read off its block's
    charge."""
    slopes = [Fraction(s) for s in slopes]
    vectors = [(s.numerator - 1,) + (0,) * (s.denominator - 1) for s in slopes]
    d0 = vectors[-1]
    for v in reversed(vectors[:-1]):
        d0 = d0[:-1] + (d0[-1] + 1,) + v
    pieces = [SemistablePiece(reduced_phase(objects.sd_charge(v)), jh((EXTREME, 1)), perfect=False)
              for v in reversed(vectors)]
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


# The Hom rule engine as it was before it became one lazy stream on offset
# phase comparisons, kept verbatim (names aside) as the reference that
# objects._rules, applicable_rules and hom_verdict must match.

def reference_direct_rules(x: FormalObject, y: FormalObject, n: int = 0) -> list:
    """All applicable phase/stability rules for Hom(x, y[n]), without Serre.

    The shift y[n] moves every phase of y by n and keeps its labels and
    flags, so only y's top phase is read shifted.
    """
    out = []
    lo, hi = phi_minus(x), phi_plus(y) + n
    c = lo.cmp(hi)
    if c > 0:
        out.append(Verdict("zero", "hn-phase-gap"))
    elif c < 0:
        if hi < lo + 1:
            out.append(Verdict("nonzero", "open-phase-window"))
    else:
        if _is_stable(x) and _is_stable(y):
            lx = x.pieces[0].jh.entries[0][0]
            ly = y.pieces[0].jh.entries[0][0]
            if lx == ly:
                out.append(Verdict("nonzero", "equal-phase-stable-identity"))
            else:
                out.append(Verdict("zero", "equal-phase-stable-orthogonal"))
        if x.indecomposable and y.indecomposable:
            if classify_type(x) != "I" and classify_type(y) != "I":
                out.append(Verdict("nonzero", "equal-phase-indecomposable-extreme"))
            lx, ly = _single_label(x), _single_label(y)
            if lx is not None and lx == ly:
                out.append(Verdict("nonzero", "equal-phase-isotypic"))
    return out


def reference_applicable_rules(x: FormalObject, y: FormalObject) -> list:
    out = reference_direct_rules(x, y)
    if x.is_perfect() or y.is_perfect():
        # Duality pairs Hom(x, y) with Hom(y, x[1]) when one side is perfect.
        for v in reference_direct_rules(y, x, 1):
            out.append(Verdict(v.kind, f"serre-dual:{v.rule}"))
    return out


def reference_hom_verdict(x: FormalObject, y: FormalObject) -> Verdict:
    """Decide Hom(x, y) = 0 or not, or report Unknown; never guesses."""
    if not x.pieces or not y.pieces:
        raise DomainError("hom verdict needs nonempty objects")
    rules = reference_applicable_rules(x, y)
    if rules:
        return rules[0]
    return Verdict("unknown", None)


# tstruct.membership as it was before it read each piece at offsets 0 and -1
# of the one cut, kept verbatim (names aside) as the reference it must match.

def _reference_cut_plus_one(cut):
    if isinstance(cut, RationalCut):
        return RationalCut(cut.phase + 1)
    return cut.shifted(1)


def _reference_labels_in(piece: SemistablePiece, spec) -> bool:
    return all(spec.contains(lab) for lab, _ in piece.jh.entries)


def reference_membership(t, x: FormalObject) -> frozenset:
    """All memberships of x among lower aisle, upper aisle and heart."""
    plus = t.minus.complement()
    upper_cut = _reference_cut_plus_one(t.cut)
    leq0 = geq1 = heart = True
    for p in x.pieces:
        rel = charges.cut_cmp(t.cut, p.phase)
        rel_up = charges.cut_cmp(upper_cut, p.phase)
        leq0 = leq0 and (rel < 0 or (rel == 0 and _reference_labels_in(p, t.minus)))
        geq1 = geq1 and (rel > 0 or (rel == 0 and _reference_labels_in(p, plus)))
        heart = heart and (
            (rel < 0 and rel_up > 0)
            or (rel == 0 and _reference_labels_in(p, t.minus))
            or (rel_up == 0 and _reference_labels_in(p, plus))
        )
    out = set()
    if leq0:
        out.add("aisle-leq0")
    if geq1:
        out.add("aisle-geq1")
    if heart:
        out.add("heart")
    return frozenset(out)


def shifted_applicable_rules(x, y, serre=True):
    """applicable_rules with the Serre-dual rules read off the shifted
    object shift(x, 1) itself."""
    out = reference_direct_rules(x, y)
    if serre and (x.is_perfect() or y.is_perfect()):
        for v in reference_direct_rules(y, objects.shift(x, 1)):
            out.append(Verdict(v.kind, f"serre-dual:{v.rule}"))
    return out


# The Fraction pipeline of render.shadow_svg: the reference for its integer
# (num, den) coordinates.

def _fraction_proxy(p):
    x, y = p.dir
    return p.shift + Fraction(y - 2 * min(x, 0), 2 * (abs(x) + y)) if y else p.shift + 1


def _fraction_fmt(v):
    return f"{float(v):.2f}"


def _crc32(data):
    """CRC-32 bit by bit (reflected polynomial 0xEDB88320, initial value and
    final xor 0xFFFFFFFF), independent of binascii."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = crc >> 1 ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def _hashed_slot(label):
    """A label's row from the bitwise CRC-32 of its identifier: the reference
    for render's slot."""
    if label.kind == "extreme":
        return render.EXTREME_Y
    data = label.ident.encode("utf-8", "surrogatepass")
    return render.BAND_TOP + _crc32(data) % render.BAND_HEIGHT


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
        slots = sorted(_hashed_slot(lab) for lab, _ in p.jh.entries)
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


@pytest.fixture
def fraction_calls(monkeypatch):
    """A Counter of the Fractions built ("new") and the Fraction.__eq__
    calls ("eq") made while the test runs; clear it after building inputs."""
    counts, new, eq = Counter(), Fraction.__new__, Fraction.__eq__

    def counting_new(cls, *args, **kwargs):
        counts["new"] += 1
        return new(cls, *args, **kwargs)

    def counting_eq(a, b):
        counts["eq"] += 1
        return eq(a, b)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(Fraction, "__eq__", counting_eq)
    return counts


@pytest.fixture
def value_builds(monkeypatch):
    """count(*classes) starts counting the values of those `Value` classes
    built while the test runs, through the checked constructor or `_make`,
    and returns the Counter it fills, keyed by class name."""
    counts = Counter()

    def counting(name, build):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return build(*args, **kwargs)
        return wrapper

    def count(*classes):
        for cls in classes:
            monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
            monkeypatch.setattr(cls, "_make", staticmethod(counting(cls.__name__, cls._make)))
        return counts

    return count
