"""The universal-cover group of twist auto-equivalences at charge/phase level.

Generators are the two spherical twists (by the structure sheaf and by the
residue field of a fixed smooth point) and the translation functor.  Words
over these letters act on charges through integer matrices in (rk, -deg)
coordinates and on phases through exact rules, both evaluated one maximal
run of a repeated letter at a time.  A group element is pinned by its
matrix together with the exact image of phase 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from . import lifts
from .charges import Charge, DomainError, Phase, normalize_direction

# Letters; lowercase denotes the inverse.
T_O, T_O_INV = "TO", "to"
T_K, T_K_INV = "TK", "tk"
SHIFT, SHIFT_INV = "S", "s"

LETTERS = (T_O, T_O_INV, T_K, T_K_INV, SHIFT, SHIFT_INV)

_INVERSE = {"TO": "to", "to": "TO", "TK": "tk", "tk": "TK", "S": "s", "s": "S"}

GenWord = list  # list of letters, applied left to right

PHASE_HALF = Phase((0, 1), 0)
PHASE_ONE = Phase((-1, 0), 0)

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

IDENTITY_K: KMat = ((1, 0), (0, 1))


def generator_matrix(letter: str) -> KMat:
    if letter not in _GEN_MATRICES:
        raise DomainError(f"unknown generator letter {letter!r}")
    return _GEN_MATRICES[letter]


def kmat_det(m: KMat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def kmat_inv(m: KMat) -> KMat:
    (a, b), (c, d) = m
    det = a * d - b * c
    if det != 1:
        raise DomainError("matrix is not in SL(2,Z)")
    return ((d, -b), (-c, a))


def kmat_to_plane(m: KMat) -> KMat:
    """Convert the (rk, -deg) action into the action on (x, y) = (-deg, rk)."""
    (a, b), (c, d) = m
    return ((d, c), (b, a))


def _runs(word: GenWord):
    """Maximal runs (letter, length) of a word, in order."""
    for letter, run in groupby(word):
        yield letter, sum(1 for _ in run)


def _run_matrix(letter: str, k: int) -> KMat:
    """Matrix of letter**k: twists are unipotent, the shift squares to 1."""
    (a, b), (c, d) = generator_matrix(letter)
    if letter in ("S", "s"):
        return ((a, 0), (0, d)) if k % 2 else IDENTITY_K
    return ((a, b * k), (c * k, d))


def word_matrix(word: GenWord) -> KMat:
    """Matrix of a word; the first letter of the word acts first."""
    m = IDENTITY_K
    for letter, k in _runs(word):
        m = lifts.mat_mul(_run_matrix(letter, k), m)
    return m


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


def _run_phase(letter: str, k: int, p: Phase) -> Phase:
    """Phase action of letter**k.

    TK**n shears (x, y) to (x - n*y, y) and keeps the strip; T_O fixes phase
    1/2, so TO**n is the lift of its plane matrix anchored at 1/2.
    """
    n = k if letter in ("TO", "TK", "S") else -k
    if letter in ("S", "s"):
        return p + n
    if letter in ("TK", "tk"):
        x, y = p.dir
        return Phase((x - n * y, y), p.shift)
    if letter in ("TO", "to"):
        return lifts.lift_phase(((1, 0), (n, 1)), PHASE_HALF, p)
    raise DomainError(f"unknown generator letter {letter!r}")


def apply_to_phase(word: GenWord, p: Phase) -> Phase:
    """Phase action of a word, first letter first."""
    for letter, k in _runs(word):
        p = _run_phase(letter, k, p)
    return p


@dataclass(frozen=True)
class AutoEq:
    """Universal-cover element: integer matrix plus exact image of phase 1/2."""

    kmatrix: KMat
    anchor: Phase

    def __post_init__(self):
        if kmat_det(self.kmatrix) != 1:
            raise DomainError("auto-equivalence matrix must have determinant 1")
        d, _ = normalize_direction(lifts.mat_apply(self.plane(), (0, 1)))
        if d != self.anchor.dir:
            raise DomainError("anchor direction does not match the matrix")

    def plane(self) -> lifts.Mat:
        return kmat_to_plane(self.kmatrix)

    @staticmethod
    def identity() -> "AutoEq":
        return AutoEq(IDENTITY_K, PHASE_HALF)

    @staticmethod
    def from_matrix(kmatrix: KMat, winding: int = 0) -> "AutoEq":
        """Element with the principal anchor (value in (0, 2]) plus even winding."""
        anchor = lifts.principal_anchor(kmat_to_plane(kmatrix), winding)
        return AutoEq(kmatrix, anchor)


def apply_to_charge(g, c: Charge) -> Charge:
    """Charge action of an AutoEq or a generator word."""
    m = g.kmatrix if isinstance(g, AutoEq) else word_matrix(g)
    return apply_matrix_to_charge(m, c)


def lift_phase(g: AutoEq, p: Phase) -> Phase:
    """The strictly increasing lift of g's ray action, evaluated at p."""
    return lifts.lift_phase(g.plane(), g.anchor, p)


def normal_form(word: GenWord) -> AutoEq:
    """Evaluate a word to its (matrix, anchor) normal form."""
    return AutoEq(word_matrix(word), apply_to_phase(word, PHASE_HALF))


def compose(g: AutoEq, h: AutoEq) -> AutoEq:
    """g after h."""
    anchor = lifts.compose_anchor(g.plane(), g.anchor, h.anchor)
    return AutoEq(lifts.mat_mul(g.kmatrix, h.kmatrix), anchor)


def invert(g: AutoEq) -> AutoEq:
    return AutoEq(kmat_inv(g.kmatrix), lifts.invert_anchor(g.plane(), g.anchor))


FLIP_WORD = ["TK", "TO", "TK"]


def reduce_to_torsion(c: Charge) -> tuple[GenWord, Charge]:
    """Euclidean reduction of a charge to a torsion class (0, +-gcd).

    Continued-fraction schedule: clear the degree modulo the rank with twist
    powers, then swap rank and degree with the composite quarter-turn word.
    At integer slopes the degree is cleared completely first.
    """
    if c.is_zero():
        raise DomainError("cannot reduce the zero class")
    word: GenWord = []
    r, d = c.rk, c.deg
    while r != 0:
        q = d // r
        # minimal-magnitude remainder keeps the word short
        m = min((-q, -q - 1), key=lambda k: (abs(d + k * r), abs(k)))
        if m:
            word.extend(["TK" if m > 0 else "tk"] * abs(m))
            d += m * r
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
    k = q.shift
    word = word + (["s"] * k if k > 0 else ["S"] * (-k))
    return word
