"""Shared random generators and reference oracles for the property suites."""

import random
from functools import reduce

import pytest

from hnlab import autoeq, lifts
from hnlab.charges import Charge, Phase, normalize_direction, reduced_phase
from hnlab.objects import (
    EXTREME,
    FormalObject,
    JHComposition,
    SemistablePiece,
    smooth,
)


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
    word, m = [], autoeq.IDENTITY_K
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


def letter_word_phase(word, p):
    """Phase action of a word, one letter at a time."""
    for letter in word:
        p = letter_phase(letter, p)
    return p


def letter_word_matrix(word):
    """Matrix of a word as the product of its letters' matrices."""
    gens = (autoeq.generator_matrix(l) for l in reversed(word))
    return reduce(lifts.mat_mul, gens, autoeq.IDENTITY_K)


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


def random_object(rng, max_pieces=3):
    n = rng.randint(1, max_pieces)
    phases = []
    seen = set()
    while len(phases) < n:
        p = random_phase(rng)
        key = (p.dir, p.shift)
        if key not in seen:
            seen.add(key)
            phases.append(p)
    phases.sort(key=lambda p: (p.shift, p.approx()), reverse=True)
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


@pytest.fixture
def rng():
    return random.Random(20240817)
