"""The family of t-structures: cut phase plus a subset of stables at the cut.

A t-structure is specified by a phase cut (lattice phase or quadratic surd)
and, at a lattice cut, the subset of stable labels pushed into the lower
aisle.  Membership, truncation triangles, the Noetherian test and explicit
witness chains for every non-Noetherian heart are all exact.
Membership and truncation share one split at the cut (`_split`): a piece
above the cut is low, below it high, and at the cut split by its labels;
membership asks which side is empty (for the heart, D<=0 and D>=1[1], once
more at offset -1).  A subset's smooth part is finite (`none`, `only`) or
cofinite (`all`, `all-except`), and its id set says the rest.
At a surd cut every decision is the sign of an integer surd A + B*sqrt(D).
An epi chain takes one extended gcd for its first member; every member, the
first included, is the step w(n+1) = k(n)*w(n) - w(n-1) with k(n) read off
a Hirzebruch-Jung digit walk on the quadratic irrational L(w(n-1))/L(w(n)),
whose state stays bounded by the cut while the members grow.  A chain
makes one surd sign test, the one that picks its seed's window vector:
the walk's exact floor already puts each ratio strictly between k - 1 and
k, and once a state repeats the rest of the chain replays its digit period.
Each chain, epi chain or witness, has one lazy producer (`_epi_members`,
`_witness_members`): called, it checks its inputs (and does an epi chain's
digit walk), so every refusal is raised then, and its iterator makes the
members one at a time as they are read.  `epi_chain` and
`non_noetherian_witness` give the members as a list; the CLI writes them
from the producer, so no process holds a whole chain.
The group layer (`autoeq`) loads with the first witness at a lattice cut.
The object layer (`objects`) loads with the first split piece or
truncation (`_object_layer`), so `noetherian`, `epichain` and a surd-cut
witness load no other layer.
"""

import itertools
import math

from .charges import (
    Charge,
    DomainError,
    RationalCut,
    SurdCut,
    Value,
    _ext_gcd,
    _named,
    _surd_sign,
    cut_cmp,
)


_COFINITE = frozenset({"all", "all-except"})
_objects = None  # the object layer, kept here by _object_layer once imported


def _object_layer():
    """The objects module, imported by the first call that builds a piece or
    an object, so that loading tstruct does not load the object layer.  It
    is kept in a global: an import statement run on every call costs a few
    microseconds even when the module is loaded."""
    global _objects
    if _objects is None:
        from . import objects as _objects
    return _objects


class StableSubsetSpec(Value):
    """Decidable subset of the stable labels at one phase: the extreme stable
    is in or out by flag, and the smooth part is finite (none, or only its
    ids) or cofinite (all, or all but its ids), the ids a frozenset of str.
    An empty id set is stored as none or all, so each subset has one spelling."""

    __slots__ = ("include_extreme", "smooth_mode", "smooth_ids")
    def __init__(self, include_extreme: bool = False,
                 smooth_mode: str = "none",  # none | all | only | all-except
                 smooth_ids: frozenset = frozenset()):
        if include_extreme.__class__ is not bool:
            raise DomainError("include_extreme must be True or False")
        if smooth_mode not in ("none", "all", "only", "all-except"):
            raise DomainError(_named("unknown smooth mode", smooth_mode, repr))
        if isinstance(smooth_ids, str):
            raise DomainError(_named("smooth ids given as one string", smooth_ids, repr))
        try:
            smooth_ids = frozenset(smooth_ids)
        except TypeError:  # not a collection, or an unhashable member
            raise DomainError("smooth ids must be a collection of strings") from None
        if not all(isinstance(i, str) for i in smooth_ids):
            raise DomainError("smooth ids must be strings")
        if smooth_mode in ("none", "all") and smooth_ids:
            raise DomainError("id set only allowed for only/all-except modes")
        if not smooth_ids:
            smooth_mode = "all" if smooth_mode in _COFINITE else "none"
        self._store(include_extreme, smooth_mode, smooth_ids)

    def contains(self, label) -> bool:
        """Whether the StableLabel label is in the subset."""
        if label.kind == "extreme":
            return self.include_extreme
        return (label.ident in self.smooth_ids) != (self.smooth_mode in _COFINITE)

    def complement(self) -> "StableSubsetSpec":
        mode = {"none": "all", "all": "none", "only": "all-except", "all-except": "only"}
        return StableSubsetSpec(
            not self.include_extreme, mode[self.smooth_mode], self.smooth_ids
        )

    def is_empty(self) -> bool:
        return not (self.include_extreme or self.smooth_ids or self.smooth_mode in _COFINITE)


EMPTY_SPEC = StableSubsetSpec()


class TStructure(Value):
    __slots__ = ("cut", "minus")
    def __init__(self, cut: RationalCut | SurdCut, minus: StableSubsetSpec = EMPTY_SPEC):
        if isinstance(cut, SurdCut) and not minus.is_empty():
            raise DomainError("no stable objects sit at an irrational cut")
        self._store(cut, minus)


def _split_piece(p, spec: StableSubsetSpec):
    """Split a cut-phase SemistablePiece into (entries in spec, entries
    outside).

    When a genuine split happens the side containing smooth factors stays
    perfect and the purely extreme side is emitted non-perfect; the model
    cannot certify band summands across a split.
    """
    inside = tuple(e for e in p.jh.entries if spec.contains(e[0]))
    outside = tuple(e for e in p.jh.entries if not spec.contains(e[0]))
    if not outside:
        return p, None
    if not inside:
        return None, p

    objects = _object_layer()
    piece, composition = objects.SemistablePiece._make, objects.JHComposition._make

    def side(entries):
        # a nonempty part of a valid composition, perfect iff it has a smooth factor
        all_ext = all(lab.kind == "extreme" for lab, _ in entries)
        return piece(p.phase, composition(entries), not all_ext)

    return side(inside), side(outside)


def _split(t: TStructure, pieces, offset: int = 0) -> tuple[list, list]:
    """(parts in D<=0, parts in D>=1) of the pieces, in order, each piece
    read with its phase moved by offset: above the cut it is low, below it
    high, and at the cut `_split_piece` splits it by t.minus.  The parts
    are of the unmoved pieces, so each side keeps their phase order."""
    low, high = [], []
    for p in pieces:
        rel = cut_cmp(t.cut, p.phase, offset)
        if rel < 0:
            low.append(p)
        elif rel > 0:
            high.append(p)
        else:
            lo, hi = _split_piece(p, t.minus)
            if lo is not None:
                low.append(lo)
            if hi is not None:
                high.append(hi)
    return low, high


def membership(t: TStructure, x) -> frozenset:
    """All memberships of the FormalObject x among lower aisle, upper aisle
    and heart: which side of `_split` is empty.  The heart is D<=0 and
    D>=1[1], so x is in it when it is in the lower aisle and x split at
    offset -1 has no low part."""
    low, high = _split(t, x.pieces)
    out = set()
    if not high:
        out.add("aisle-leq0")
        if not _split(t, x.pieces, -1)[0]:
            out.add("heart")
    if not low:
        out.add("aisle-geq1")
    return frozenset(out)


def truncate(t: TStructure, x):
    """Triangle decomposition A -> x -> B of the FormalObject x, with A in
    D^{<=0} and B in D^{>=1}: the two FormalObjects of the sides of `_split`,
    each in x's phase order."""
    low, high = _split(t, x.pieces)
    make = _object_layer().FormalObject._make
    return make(tuple(low), None), make(tuple(high), None)


def is_noetherian(t: TStructure) -> bool:
    """The heart is Noetherian exactly at a lattice cut with nothing pushed down."""
    return isinstance(t.cut, RationalCut) and t.minus.is_empty()


def _window_form(cut: SurdCut, v) -> tuple[int, int]:
    """(A, B) with sign(A + B*sqrt(D)) > 0 iff the plane vector v lies in the
    open half-plane of phases strictly between the cut and the cut plus one."""
    x, y = v
    sgn = 1 if cut.strip % 2 == 0 else -1
    return (-sgn * (cut.c * x + cut.a * y), -sgn * cut.b * y)


def _window_vector(c: Charge, cut: SurdCut):
    """The one of +-(-deg, rk) inside the window, for a nonzero charge c: the
    window form is linear, so -w lies in it exactly when w does not, and at
    an irrational slope it is zero only at (0, 0)."""
    w = (-c.deg, c.rk)
    return w if _surd_sign(*_window_form(cut, w), cut.D) > 0 else (c.deg, -c.rk)


def _ratio_state(cut: SurdCut, w, f) -> tuple[int, int, int]:
    """(P, R, N) with L(w)/L(f) = (P + sqrt(N))/R and R dividing N - P^2,
    for L(v) = A + B*sqrt(D) the window form.  Rationalising by the conjugate
    of L(f) gives (p + q*sqrt(D))/Nm(L(f)) with p^2 - q^2*D = Nm(L(w))*Nm(L(f)),
    so R = +-Nm(L(f)) divides N - P^2 for N = q^2*D; and q = -b*c*cross(w, f)
    makes N = (b*c)^2*D for every pair with cross(w, f) = 1, whatever its size."""
    aw, bw = _window_form(cut, w)
    af, bf = _window_form(cut, f)
    q = bw * af - aw * bf
    g = 1 if q > 0 else -1
    return g * (aw * af - bw * bf * cut.D), g * (af * af - bf * bf * cut.D), q * q * cut.D


def epi_chain(e: Charge, cut: SurdCut, length: int) -> list:
    """Chain of charges, each pairing to 1 against the previous one, with all
    phases and all difference classes strictly inside the open cut strip:
    the list of `_epi_members`, the chain's one producer.

    The chain takes one extended gcd for its first member: it gives a v with
    cross(v, w) = 1 for the seed w, and every member is then a digit-walk
    step.  With r = L(v)/L(w) for the window form L, the next member k*w - v
    and the difference w - (k*w - v) have window values L(w)*(k - r) and
    L(w)*(r - k + 1), so k is the one integer with k - 1 < r < k (and the
    first member is the seed's unique unimodular partner, whichever v the
    gcd gave).  The next ratio is 1/(k - r): the k(n) are the
    Hirzebruch-Jung digits of r.  The walk keeps r = (P + sqrt(N))/R, takes
    floor(sqrt(N)) once per chain, and touches the members only to add them.

    Cost: one surd sign test per chain, the one that picks the seed's
    window vector.  N = (b*c)^2*D is never a square, so R is never 0 and
    the integer floor of r is exact for either sign of R: k = floor(r) + 1
    meets k - 1 < r < k without a test.  The digits of a quadratic
    irrational are eventually periodic and each depends on the state
    alone, so the walk records digits up to the first repeated (P, R)
    state, and the members are the recurrence w' = k*w - prev run once over
    those digits and then over that state's digit period, replayed.  The
    recurrence runs on the four coordinates of prev and w as plain ints,
    with no tuple per member, and each member is built by `Charge._make`
    (a Charge has no check to skip)."""
    return list(_epi_members(e, cut, length))


def _epi_members(e: Charge, cut: SurdCut, length: int):
    """An iterator over the members of epi_chain(e, cut, length), made one
    at a time.  The inputs are checked, and the seed's window vector and the
    digit walk computed, before it is returned, so a refusal is raised by
    this call and never by the iterator."""
    if length.__class__ is not int:
        raise DomainError("chain length must be an integer")
    if length < 1:
        raise DomainError("chain length must be positive")
    if e.is_zero():
        raise DomainError("phase undefined on zero class")
    w = _window_vector(e, cut)
    g, u, v = _ext_gcd(*w)
    if g != 1:
        raise DomainError("unimodular partner needs a primitive class")
    prev = (v, -u)  # cross(prev, w) = u*w[0] + v*w[1] = 1
    p, r, n = _ratio_state(cut, prev, w)
    root = math.isqrt(n)  # n = (b*c)^2*D is never a square
    digits, seen = [], {}
    for i in range(length):
        if (p, r) in seen:  # the digits from here on repeat a period
            break
        seen[p, r] = i
        # floor((p + sqrt(n))/r) is floor((p + root)/r) for r > 0 and
        # floor((p + root + 1)/r) for r < 0, which the preperiod can reach
        k = (p + root + (r < 0)) // r + 1
        p = k * r - p
        r = (p * p - n) // r
        digits.append(k)
    # read only when the walk stopped at a repeated state, short of length digits
    period = itertools.cycle(digits[seen.get((p, r), len(digits)):])
    return _recurrence(prev, w, itertools.islice(itertools.chain(digits, period), length))


def _recurrence(prev, w, digits):
    """The members w' = k*w - prev, one per digit k, each as the charge
    (rk, deg) of the plane vector (-deg, rk)."""
    (x0, y0), (x, y) = prev, w
    make = Charge._make
    for k in digits:
        x0, y0, x, y = x, y, k * x - x0, k * y - y0
        yield make(y, -x)


def _pick_smooth_ident(spec: StableSubsetSpec):
    """The least id of a finite smooth subset (None when it is empty), or
    the first of x, x1, x2, ... outside the ids of a cofinite one."""
    if spec.smooth_mode not in _COFINITE:
        return min(spec.smooth_ids, default=None)
    names = itertools.chain(("x",), (f"x{n}" for n in itertools.count(1)))
    return next(name for name in names if name not in spec.smooth_ids)


def non_noetherian_witness(t: TStructure, length: int) -> dict:
    """Explicit strictly ascending chain in the heart refuting Noetherianity:
    `_witness_members` with its charges as a list.

    Lattice cut: after conjugating the cut phase to 1, degree steps of 1
    along a smooth point in the pushed-down set, or steps of 2 through the
    length-two torsion module when only the extreme stable is pushed down.
    Irrational cut: the lattice-strip chain seeded on the imaginary axis.
    """
    w = _witness_members(t, length)
    w["charges"] = list(w["charges"])
    return w


def _witness_members(t: TStructure, length: int) -> dict:
    """non_noetherian_witness(t, length) with its charges as an iterator that
    makes them one at a time; every refusal is raised by this call."""
    if is_noetherian(t):
        raise DomainError("heart is Noetherian; no witness exists")
    if length.__class__ is not int:
        raise DomainError("witness length must be an integer")
    if length < 1:
        raise DomainError("witness length must be positive")
    if isinstance(t.cut, SurdCut):
        # the form at (0, 1) is nonzero (B = -sgn*b), so the window holds +-(0, 1)
        x, y = _window_vector(Charge(1, 0), t.cut)
        seed = Charge(y, -x)
        return {
            "kind": "strip-chain",
            "seed": seed,
            "charges": _epi_members(seed, t.cut, length),
        }
    from . import autoeq
    word = autoeq.map_phase_to_one(t.cut.phase)
    ident = _pick_smooth_ident(t.minus)
    if ident is not None:
        return {
            "kind": "smooth-chain",
            "conjugation": word,
            "ident": ident,
            "charges": map(Charge._make, itertools.repeat(1), range(1, length + 1)),
            "cokernel": f"point object at {ident}, shifted down by one",
        }
    return {
        "kind": "extreme-chain",
        "conjugation": word,
        "charges": map(Charge._make, itertools.repeat(1), range(2, 2 * length + 1, 2)),
        "cokernel": "length-two torsion module at the singular point",
    }
