"""The universal-cover group of twist auto-equivalences at charge/phase level.

Generators are the two spherical twists (by the structure sheaf and by the
residue field of a fixed smooth point) and the translation functor.  A word
is a list of runs (generator, signed exponent), applied left to right: the
generator is "TO", "TK" or "S", the exponent is a nonzero int, and
adjacent runs have different generators, so [("TK", -3), ("TO", 1)] is
tk tk tk TO.  Every function taking a word also takes bare letters (a run
of 1; lowercase is the inverse) and (letter, n) pairs, mixed; `runs` merges
them into canonical runs, and every word returned is canonical.  So each
function costs O(runs), whatever the exponents.  One rule, `_items`,
decides which items a word may hold: it checks every item once, before
any is read, into a list of (generator, signed exponent) runs, and the
walks below read that list unmerged, with no check of their own.

Words act on charges and on phases, both by one walk over the checked
runs on plain integers, in the plane coordinates (x, y) = (-deg, rk) of the
central charge Z = -deg + i*rk, on which every `lifts.Lift` is stored.  A
phase with direction (x, y) and strip shift s moves run by run:

- TK**n shears (x, y) to (x - n*y, y) and keeps the strip;
- S**n adds n to s;
- TO**n sends y to y + n*x: T_O fixes phase 1/2, so this is the lift of
  ((1, 0), (n, 1)) anchored at 1/2.  An image that leaves the sector is
  negated, and s moves one strip down if x > 0, up if x < 0.

Every run is unimodular, so a primitive direction stays primitive and no
gcd is taken, and the walk negates any image that leaves the sector; so
the one Phase built at the end skips the primitivity and sector checks.
The matrix walk is the same on four ints: TK**n subtracts n times row 1
from row 0, TO**n adds n times row 0 to row 1, and an odd power of the
shift negates.  `normal_form` and `apply_to_charge` make one pass over the
checked runs that walks the matrix only: the image of phase 1/2
is a sign times the matrix's second column, so the anchor is read off
the matrix with one sign and one strip count.  The pass walks leaves of
32 TK and TO items, each from the identity on small integers, and
multiplies the leaves in a balanced tree by `lifts.sl2_product`, so a
long word costs products of large integers rather than a walk on them;
S runs only add to the shift.  The continued-fraction
reduction writes one TK run and one TO run per digit, and
`map_phase_to_one` reads its strip moves off the same loop.  The loop
keeps the rank positive, so each step costs one divmod and one
subtraction on full-size integers.  Its words are canonical, so
`objects.spherical_connect` joins one to the reversal of another merging
runs only at the seam (`_join`).  A group element is a `lifts.Lift`: its
integer (x, y) matrix of determinant 1, over den 1, together with the exact
image of phase 1/2.  The same matrix on (rk, -deg) is only the JSON
`matrix` convention of an auto-equivalence (`serialize.encode_autoeq`).
"""

from __future__ import annotations

import re
import sys

from . import lifts
from .charges import Charge, DomainError, Phase, _named

# Letters; lowercase denotes the inverse.
T_O, T_O_INV = "TO", "to"
T_K, T_K_INV = "TK", "tk"
SHIFT, SHIFT_INV = "S", "s"

LETTERS = (T_O, T_O_INV, T_K, T_K_INV, SHIFT, SHIFT_INV)

# tk -> (TK, -1); each value holds the module's own letter, so a canonical
# run's letter *is* its generator
_SIGNED = {T_O: (T_O, 1), T_O_INV: (T_O, -1), T_K: (T_K, 1), T_K_INV: (T_K, -1),
           SHIFT: (SHIFT, 1), SHIFT_INV: (SHIFT, -1)}

GenWord = list  # list of (generator, signed exponent) runs, applied left to right

PHASE_HALF = Phase((0, 1), 0)


def _items(word):
    """An iterator over a word's items as checked (generator, signed
    exponent) runs: a bare letter is a run of 1 and a (letter, n) pair with
    an int n a run of n, both negated for a lowercase letter; anything else
    is refused.  Every item is checked before the first run is read, so a
    walk over the runs makes no check of its own.

    An exact str and an exact tuple of an exact str and an int are read
    directly, and a run that is already canonical, such as those `_reduce`
    writes, is kept as it is (its letter is its generator); a tuple or str
    subclass is read by isinstance and rebuilt, so every run holds this
    module's own letters.
    """
    checked = []
    for item in word:
        try:
            if type(item) is str:
                checked.append(_SIGNED[item])
                continue
            if type(item) is tuple:
                letter, n = item
                if type(letter) is str and type(n) is int:
                    gen, sign = _SIGNED[letter]
                    checked.append(item if letter is gen else (gen, sign * n))
                    continue
        except (KeyError, ValueError):  # an unknown letter, or not a pair
            raise DomainError(_named("unknown generator letter", item, repr)) from None
        if (isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
                and item[0] in _SIGNED and type(item[1]) is int):
            gen, sign = _SIGNED[item[0]]
            checked.append((gen, sign * item[1]))
        elif isinstance(item, str) and item in _SIGNED:
            checked.append(_SIGNED[item])
        else:
            raise DomainError(_named("unknown generator letter", item, repr))
    return iter(checked)


def runs(word) -> GenWord:
    """A word in canonical runs.  Items are bare letters (a run of 1) or
    (letter, n) pairs with an int n; adjacent runs of one generator merge,
    and a run whose exponents sum to 0 drops out: [tk, (TK, 3), TO] ->
    [(TK, 2), (TO, 1)]."""
    out = []
    for gen, n in _items(word):
        if out and out[-1][0] == gen:
            n += out.pop()[1]
        if n:
            out.append((gen, n))
    return out


def _join(u: GenWord, v: GenWord) -> GenWord:
    """The canonical word of u followed by v, both canonical: only runs at
    the seam can merge, and a merge that cancels exposes the next pair."""
    i = 0
    while i < len(u) and i < len(v) and u[-1 - i][0] == v[i][0]:
        n = u[-1 - i][1] + v[i][1]
        if n:
            return u[:-1 - i] + [(v[i][0], n)] + v[i + 1:]
        i += 1
    return u[:len(u) - i] + v[i:]


def invert_word(word) -> GenWord:
    return [(gen, -n) for gen, n in reversed(runs(word))]


def word_to_string(word) -> str:
    """Run syntax: G for G**1, g for G**-1, G^n for n > 1 and g^n for
    n < -1, g being G in lowercase: [(TK, -3), (TO, 1), (TK, 1)] -> tk^3TOTK."""
    out = []
    for gen, n in runs(word):
        letter = gen if n > 0 else gen.lower()
        out.append(letter if n in (1, -1) else f"{letter}^{abs(n)}")
    return "".join(out)


_TOKEN = re.compile(r"(TO|to|TK|tk|S|s)(\^-?[0-9]*)?")


def word_from_string(s: str) -> GenWord:
    """Parse run syntax: each letter optionally followed by ^n, n possibly
    negative (tk^3 and TK^-3 are the same run); the result is canonical.
    A refusal names the character where the run or the text it could not
    read starts, never the whole word, which may be long."""
    items, i = [], 0
    while i < len(s):
        m = _TOKEN.match(s, i)
        if m is None:
            rest = repr(s[i:i + 20]) + ("..." if len(s) > i + 20 else "")
            raise DomainError(f"cannot parse the word at character {i}: {rest}")
        letter, power = m.groups()
        if power is None:
            items.append(letter)
        else:
            if not power.lstrip("^-"):  # "^" or "^-", no digits
                raise DomainError(f"cannot parse the exponent {power!r} of the run at "
                                  f"character {i} of the word")
            try:
                items.append((letter, int(power[1:])))
            except ValueError:  # too many digits
                raise DomainError(f"the exponent of the run at character {i} of the word has "
                                  f"more than {sys.get_int_max_str_digits()} decimal digits, "
                                  "the interpreter's limit for reading integers") from None
        i = m.end()
    return runs(items)


def apply_to_phase(word, p: Phase) -> Phase:
    """Phase action of a word, first item first, on the plain integers of p.
    The action is a group action, so the checked runs are walked unmerged."""
    return _run_phase(_items(word), p)


def _run_phase(word, p: Phase) -> Phase:
    (x, y), shift = p.dir, p.shift
    for gen, n in word:
        if gen == T_K:
            x -= n * y
        elif gen == SHIFT:
            shift += n
        else:
            y += n * x
            if y < 0 or (y == 0 and x > 0):
                shift -= 1 if x > 0 else -1
                x, y = -x, -y
    return Phase._make((x, y), shift)


# bench/ reads AutoEq; the benchmark change of ROADMAP item 4 frees it for deletion
def AutoEq(kmatrix: lifts.Mat, anchor: Phase) -> lifts.Lift:
    """Twist group element from its (rk, -deg) matrix, the JSON `matrix`
    convention, which must be in SL(2,Z), and the exact image of phase 1/2."""
    if lifts.mat_det(kmatrix) != 1:
        raise DomainError("auto-equivalence matrix must have determinant 1")
    return lifts.Lift(lifts.swap_axes(kmatrix), anchor)


def apply_to_charge(g, c: Charge) -> Charge:
    """Charge action of a group element, which must be integral (den 1), or
    of a generator word: its (x, y) matrix applied to (-deg, rk)."""
    if not isinstance(g, lifts.Lift):
        g = normal_form(g)
    elif g.den != 1:
        raise DomainError("only an integral group element acts on charges")
    x, y = lifts.mat_apply(g.ray, (-c.deg, c.rk))
    return Charge(y, -x)


_LEAF = 32  # TK and TO items per leaf of normal_form's product tree


def normal_form(word) -> lifts.Lift:
    """Evaluate a word to its (matrix, anchor) normal form in one pass over
    its checked runs (`_items`), first item first.

    The runs are cut into leaves of `_LEAF` TK and TO items, the leaves
    resuming one iterator, and no item is checked again.  Each leaf is
    walked on small integers: one row operation per item on the (x, y)
    matrix, and the image of phase 1/2 as (direction, strip shift).  That
    image is sign*(b, d), (b, d) being the matrix's second column, so only
    the sign and the strip are walked.  Only a TO row update changes that
    image's y; an image that then left the sector flips the sign and moves
    one strip down if its x is positive, up if negative.

    The leaves are multiplied by `lifts.sl2_product` in a balanced tree, a
    binary counter over a stack: the k-th leaf merges with as many products
    on top of the stack as k has trailing zero bits, so each product takes
    two factors of equally many leaves, and the stack left at the end is
    folded latest first.  A walk of the whole word would cost quadratically
    in the bit length of its integers; the tree's cost is that of its last
    few products.  A word of at most one leaf is walked alone, with no
    product.

    An odd S**n negates the matrix and flips the sign, which leaves
    sign*(b, d) as it was, and S**n commutes with every element; so S runs
    only add n to the shift, and the matrix is negated once at the end if
    the shifts sum to an odd number.  The action is a group action, so runs
    need not be merged first.
    """
    items, stack, shift, count = _items(word), [], 0, 0
    while True:
        a, b, c, d, flip, moves, left = 1, 0, 0, 1, False, 0, _LEAF
        for gen, n in items:
            if gen == T_K:
                a, b = a - n * c, b - n * d
            elif gen == SHIFT:
                shift += n
                continue
            else:
                c, d = c + n * a, d + n * b
                if (d < 0 or not d and b > 0) != flip:
                    moves += 1 if (b > 0) == flip else -1
                    flip = not flip
            left -= 1
            if not left:
                break
        if left and not stack:  # the whole word was one leaf
            break
        if left < _LEAF:  # a leaf with items: push it, merging equal subtrees
            count += 1
            leaf, k = (a, b, c, d, moves), count
            while not k & 1:
                leaf = lifts.sl2_product(leaf, stack.pop())
                k >>= 1
            stack.append(leaf)
        if left:  # the items ran out: fold the stack, latest leaves first
            leaf = stack.pop()
            while stack:
                leaf = lifts.sl2_product(leaf, stack.pop())
            a, b, c, d, moves = leaf
            flip = d < 0 or not d and b > 0
            break
    direction = (-b, -d) if flip else (b, d)
    if shift % 2:
        a, b, c, d = -a, -b, -c, -d
    # an SL(2,Z) matrix over 1 is in lowest terms, and the anchor is its image of 1/2
    return lifts.Lift._make(((a, b), (c, d)), 1, Phase._make(direction, shift + moves))


# bench/ reads these three bindings; the benchmark change of ROADMAP item 4 frees them for deletion
lift_phase = lifts.lift_phase
compose = lifts.compose
invert = lifts.invert


FLIP_WORD = [(T_K, 1), (T_O, 1), (T_K, 1)]  # the quarter turn: adds 1/2 to every phase


_TO_STEP = (T_O, 1)  # one shared tuple for every fresh TO run _reduce writes


def _reduce(r: int, d: int):
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

    The loop keeps the rank positive.  Negating r and d together keeps
    d/r: divmod gives the same q and the negated d0, and the rounding
    compares the same magnitudes, so q, the step's runs and the strip rule
    ("d0 nonzero with the sign of r") are unchanged, and the next pair
    (-d0, r) is negated too.  So the loop negates (r, d) on entry if r < 0
    and whenever the next rank would be negative, and keeps the parity of
    these negations in `flip`.  With r > 0, divmod gives 0 <= d0 < r, and
    with e = r - d0 the least remainder is -e if d0 > e, or on the tie
    d0 == e if q < 0: q goes up by one, no strip moves and the next pair is
    (e, r).  Else the remainder is d0; if it is nonzero the step moves one
    strip and the next pair (-d0, r) is negated to (d0, -r), and if it is
    zero the loop ends at (0, r).  The final degree is that r, negated if
    the parity is odd.  So each step costs one divmod and one subtraction
    on full-size integers, and one negation when it moves a strip.

    Returns (word, final degree, strip moves); the walk ends at (-|d|, 0).
    """
    word, tail, shift, flip = [], 0, 0, r < 0
    if flip:
        r, d = -r, -d
    while r:
        q, d0 = divmod(d, r)
        e = r - d0
        if d0 > e or (d0 == e and q < 0):
            q += 1
            r, d = e, r
        elif d0:
            shift += 1
            r, d, flip = d0, -r, not flip
        else:
            r, d = 0, r
        n = tail + 1 - q
        if n:
            word.append((T_K, n))
            word.append(_TO_STEP)
        elif word and word[-1][0] == T_O:  # no TK run since the last step's TO
            word[-1] = (T_O, word[-1][1] + 1)
        else:
            word.append(_TO_STEP)
        tail = 1
    if tail:
        word.append((T_K, 1))
    return word, -d if flip else d, shift


def reduce_to_torsion(c: Charge) -> tuple[GenWord, Charge]:
    """Euclidean reduction of a charge to a torsion class (0, +-gcd).

    Continued-fraction schedule: clear the degree modulo the rank with twist
    powers, then swap rank and degree with the composite quarter-turn word.
    At integer slopes the degree is cleared completely first.  Each step
    keeps the remainder of least magnitude (on a tie, the shorter power);
    the word has at most two runs per step and one more.
    """
    if c.is_zero():
        raise DomainError("cannot reduce the zero class")
    word, d, _ = _reduce(c.rk, c.deg)
    return word, Charge(0, d)


def map_phase_to_one(p: Phase) -> GenWord:
    """Word whose phase action sends the lattice phase p exactly to 1: the
    reduction of its direction (x, y) as the charge (y, -x), then one S run
    that undoes the strip moves of the reduction's phase walk."""
    x, y = p.dir
    word, _, shift = _reduce(y, -x)  # a primitive direction ends at d = +-1
    shift += p.shift
    if shift:
        word.append((SHIFT, -shift))
    return word
