"""The universal-cover group of twist auto-equivalences at charge/phase level.

Generators are the two spherical twists (by the structure sheaf and by the
residue field of a fixed smooth point) and the translation functor.  Words
act on charges through integer matrices in (rk, -deg) coordinates and on
phases, both by one walk over the word's maximal runs on plain integers.
A phase with direction (x, y) and strip shift s moves run by run:

- TK**n shears (x, y) to (x - n*y, y) and keeps the strip;
- S**n adds n to s;
- TO**n sends y to y + n*x: T_O fixes phase 1/2, so this is the lift of
  ((1, 0), (n, 1)) anchored at 1/2.  An image that leaves the sector is
  negated, and s moves one strip down if x > 0, up if x < 0.

Every run is unimodular, so a primitive direction stays primitive and no
gcd is taken; the one Phase built at the end still checks primitivity and
the sector.  The matrix walk is the same on four ints: TO**n adds n times
row 1 to row 0, TK**n subtracts n times row 0 from row 1, and an odd
power of the shift negates.  A group element is a `lifts.Lift`: its
integer plane matrix of determinant 1 together with the exact image of
phase 1/2; `kmatrix` gives the matrix in (rk, -deg) coordinates.
"""

from __future__ import annotations

from itertools import groupby

from . import lifts
from .charges import Charge, DomainError, Phase

# Letters; lowercase denotes the inverse.
T_O, T_O_INV = "TO", "to"
T_K, T_K_INV = "TK", "tk"
SHIFT, SHIFT_INV = "S", "s"

LETTERS = (T_O, T_O_INV, T_K, T_K_INV, SHIFT, SHIFT_INV)

_INVERSE = {"TO": "to", "to": "TO", "TK": "tk", "tk": "TK", "S": "s", "s": "S"}

_SIGNED = {s: (s.upper(), 1 if s.isupper() else -1) for s in LETTERS}  # tk -> (TK, -1)

GenWord = list  # list of letters, applied left to right

PHASE_HALF = Phase((0, 1), 0)

# Matrices act on coordinate vectors (rk, -deg).
_GEN_MATRICES = {
    "TO": ((1, 1), (0, 1)),
    "to": ((1, -1), (0, 1)),
    "TK": ((1, 0), (-1, 1)),
    "tk": ((1, 0), (1, 1)),
    "S": ((-1, 0), (0, -1)),
    "s": ((-1, 0), (0, -1)),
}

KMat = tuple[tuple[int, int], tuple[int, int]]


def generator_matrix(letter: str) -> KMat:
    if letter not in _GEN_MATRICES:
        raise DomainError(f"unknown generator letter {letter!r}")
    return _GEN_MATRICES[letter]


def _runs(word: GenWord):
    """Maximal runs of a word as (generator, signed exponent): tk tk -> (TK, -2)."""
    for letter, run in groupby(word):
        if letter not in _SIGNED:
            raise DomainError(f"unknown generator letter {letter!r}")
        gen, sign = _SIGNED[letter]
        yield gen, sign * len(list(run))


def word_matrix(word: GenWord) -> KMat:
    """Matrix of a word, first letter first; each run is one row operation."""
    a, b, c, d = 1, 0, 0, 1
    for gen, n in _runs(word):
        if gen == T_O:
            a, b = a + n * c, b + n * d
        elif gen == T_K:
            c, d = c - n * a, d - n * b
        elif n % 2:
            a, b, c, d = -a, -b, -c, -d
    return ((a, b), (c, d))


def invert_word(word: GenWord) -> GenWord:
    return [_INVERSE[l] for l in reversed(word)]


def word_to_string(word: GenWord) -> str:
    return "".join(word)


def word_from_string(s: str) -> GenWord:
    word, i = [], 0
    while i < len(s):
        if s[i] in ("S", "s"):
            word.append(s[i])
            i += 1
        elif s[i : i + 2] in ("TO", "to", "TK", "tk"):
            word.append(s[i : i + 2])
            i += 2
        else:
            raise DomainError(f"cannot parse word at {s[i:]!r}")
    return word


def word_block_length(word: GenWord) -> int:
    """Number of maximal runs of a repeated letter."""
    return sum(1 for _ in groupby(word))


def apply_matrix_to_charge(m: KMat, c: Charge) -> Charge:
    (a, b), (cc, d) = m
    r, nd = c.rk, -c.deg
    r2 = a * r + b * nd
    nd2 = cc * r + d * nd
    return Charge(r2, -nd2)


def apply_to_phase(word: GenWord, p: Phase) -> Phase:
    """Phase action of a word, first letter first, on the plain integers of p."""
    (x, y), shift = p.dir, p.shift
    for gen, n in _runs(word):
        if gen == T_K:
            x -= n * y
        elif gen == SHIFT:
            shift += n
        else:
            y += n * x
            if y < 0 or (y == 0 and x > 0):
                shift -= 1 if x > 0 else -1
                x, y = -x, -y
    return Phase((x, y), shift)


def AutoEq(kmatrix: KMat, anchor: Phase) -> lifts.Lift:
    """Twist group element from its (rk, -deg) matrix, which must be in
    SL(2,Z), and the exact image of phase 1/2."""
    if lifts.mat_det(kmatrix) != 1:
        raise DomainError("auto-equivalence matrix must have determinant 1")
    return lifts.Lift(lifts.swap_axes(kmatrix), anchor)


def apply_to_charge(g, c: Charge) -> Charge:
    """Charge action of a group element or a generator word."""
    m = g.kmatrix if isinstance(g, lifts.Lift) else word_matrix(g)
    return apply_matrix_to_charge(m, c)


def normal_form(word: GenWord) -> lifts.Lift:
    """Evaluate a word to its (matrix, anchor) normal form."""
    return lifts.Lift(lifts.swap_axes(word_matrix(word)), apply_to_phase(word, PHASE_HALF))


lift_phase = lifts.lift_phase
compose = lifts.compose
invert = lifts.invert


FLIP_WORD = ["TK", "TO", "TK"]

# Longest word the reductions write out letter by letter.
MAX_WORD_LETTERS = 10**7


def _append_power(word: GenWord, letter: str, n: int):
    """Append letter**n, n >= 0, refusing before a list past the cap is built."""
    if len(word) + n > MAX_WORD_LETTERS:
        raise DomainError(f"word exceeds {MAX_WORD_LETTERS} letters")
    word.extend([letter] * n)


def reduce_to_torsion(c: Charge) -> tuple[GenWord, Charge]:
    """Euclidean reduction of a charge to a torsion class (0, +-gcd).

    Continued-fraction schedule: clear the degree modulo the rank with twist
    powers, then swap rank and degree with the composite quarter-turn word.
    At integer slopes the degree is cleared completely first.  Each step
    keeps the remainder of least magnitude (on a tie, the shorter power).
    """
    if c.is_zero():
        raise DomainError("cannot reduce the zero class")
    word: GenWord = []
    r, d = c.rk, c.deg
    while r != 0:
        q, d = divmod(d, r)
        if 2 * abs(d) > abs(r) or (2 * abs(d) == abs(r) and q < 0):
            q, d = q + 1, d - r
        _append_power(word, "tk" if q > 0 else "TK", abs(q))
        word.extend(FLIP_WORD)
        r, d = -d, r
    return word, Charge(0, d)


def map_phase_to_one(p: Phase) -> GenWord:
    """Word whose phase action sends the lattice phase p exactly to 1."""
    rep = Charge(p.dir[1], -p.dir[0])
    word, _ = reduce_to_torsion(rep)
    q = apply_to_phase(word, p)
    if q.dir != (-1, 0):
        raise DomainError("reduction did not land on the torsion direction")
    _append_power(word, "s" if q.shift > 0 else "S", abs(q.shift))
    return word
