"""The family of t-structures: cut phase plus a subset of stables at the cut.

A t-structure is specified by a phase cut (lattice phase or quadratic surd)
and, at a lattice cut, the subset of stable labels pushed into the lower
aisle.  Membership, truncation triangles, the Noetherian test and explicit
witness chains for every non-Noetherian heart are all exact.  At a surd
cut every decision is the sign of an integer surd A + B*sqrt(D).  An epi
chain takes one extended gcd for its first member; every member, the first
included, is the step w(n+1) = k(n)*w(n) - w(n-1) with k(n) read off a
Hirzebruch-Jung digit walk on the quadratic irrational L(w(n-1))/L(w(n)),
whose state stays bounded by the cut while the members grow.  A chain
makes one surd sign test, the one that picks its seed's window vector:
the walk's exact floor already puts each ratio strictly between k - 1 and
k, and once a state repeats the rest of the chain replays its digit period.
"""

from __future__ import annotations

import itertools
import math

from . import autoeq, lifts
from .charges import (
    Charge,
    DomainError,
    RationalCut,
    SurdCut,
    Value,
    _surd_sign,
    cut_cmp,
)
from .objects import FormalObject, JHComposition, SemistablePiece, StableLabel


class StableSubsetSpec(Value):
    """Decidable subset of the stable labels at one phase.

    The smooth part is one of: none, all, a finite id set, or the
    complement of a finite id set; the extreme stable is in or out by flag.
    """

    __slots__ = ("include_extreme", "smooth_mode", "smooth_ids")
    def __init__(self, include_extreme: bool = False,
                 smooth_mode: str = "none",  # none | all | only | all-except
                 smooth_ids: frozenset = frozenset()):
        if smooth_mode not in ("none", "all", "only", "all-except"):
            raise DomainError(f"unknown smooth mode {smooth_mode!r}")
        if smooth_mode in ("none", "all") and smooth_ids:
            raise DomainError("id set only allowed for only/all-except modes")
        self._store(include_extreme, smooth_mode, smooth_ids)

    def contains(self, label: StableLabel) -> bool:
        if label.kind == "extreme":
            return self.include_extreme
        if self.smooth_mode == "none":
            return False
        if self.smooth_mode == "all":
            return True
        if self.smooth_mode == "only":
            return label.ident in self.smooth_ids
        return label.ident not in self.smooth_ids

    def complement(self) -> "StableSubsetSpec":
        mode = {"none": "all", "all": "none", "only": "all-except", "all-except": "only"}
        return StableSubsetSpec(
            not self.include_extreme, mode[self.smooth_mode], self.smooth_ids
        )

    def is_empty(self) -> bool:
        if self.include_extreme:
            return False
        return self.smooth_mode == "none" or (
            self.smooth_mode == "only" and not self.smooth_ids
        )


EMPTY_SPEC = StableSubsetSpec()


class TStructure(Value):
    __slots__ = ("cut", "minus")
    def __init__(self, cut: RationalCut | SurdCut, minus: StableSubsetSpec = EMPTY_SPEC):
        if isinstance(cut, SurdCut) and not minus.is_empty():
            raise DomainError("no stable objects sit at an irrational cut")
        self._store(cut, minus)


def _cut_plus_one(cut: RationalCut | SurdCut) -> RationalCut | SurdCut:
    if isinstance(cut, RationalCut):
        return RationalCut(cut.phase + 1)
    return cut.shifted(1)


def _labels_in(piece: SemistablePiece, spec: StableSubsetSpec) -> bool:
    return all(spec.contains(lab) for lab, _ in piece.jh.entries)


def membership(t: TStructure, x: FormalObject) -> frozenset:
    """All memberships of x among lower aisle, upper aisle and heart."""
    plus = t.minus.complement()
    upper_cut = _cut_plus_one(t.cut)
    leq0 = geq1 = heart = True
    for p in x.pieces:
        rel = cut_cmp(t.cut, p.phase)
        rel_up = cut_cmp(upper_cut, p.phase)
        leq0 = leq0 and (rel < 0 or (rel == 0 and _labels_in(p, t.minus)))
        geq1 = geq1 and (rel > 0 or (rel == 0 and _labels_in(p, plus)))
        heart = heart and (
            (rel < 0 and rel_up > 0)
            or (rel == 0 and _labels_in(p, t.minus))
            or (rel_up == 0 and _labels_in(p, plus))
        )
    out = set()
    if leq0:
        out.add("aisle-leq0")
    if geq1:
        out.add("aisle-geq1")
    if heart:
        out.add("heart")
    return frozenset(out)


def _split_piece(p: SemistablePiece, spec: StableSubsetSpec):
    """Split a cut-phase piece into (entries in spec, entries outside).

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

    def side(entries):
        # a nonempty part of a valid composition, perfect iff it has a smooth factor
        all_ext = all(lab.kind == "extreme" for lab, _ in entries)
        return SemistablePiece._make(p.phase, JHComposition._make(entries), not all_ext)

    return side(inside), side(outside)


def truncate(t: TStructure, x: FormalObject):
    """Triangle decomposition A -> x -> B with A in D^{<=0}, B in D^{>=1}."""
    a_pieces, b_pieces = [], []
    for p in x.pieces:
        rel = cut_cmp(t.cut, p.phase)
        if rel < 0:
            a_pieces.append(p)
        elif rel > 0:
            b_pieces.append(p)
        else:
            lo, hi = _split_piece(p, t.minus)
            if lo is not None:
                a_pieces.append(lo)
            if hi is not None:
                b_pieces.append(hi)
    # each side keeps x's phase order: a split piece keeps its phase
    return FormalObject._make(tuple(a_pieces), None), FormalObject._make(tuple(b_pieces), None)


def is_noetherian(t: TStructure) -> bool:
    """The heart is Noetherian exactly at a lattice cut with nothing pushed down."""
    return isinstance(t.cut, RationalCut) and t.minus.is_empty()


def _window_form(cut: SurdCut, v) -> tuple[int, int]:
    """(A, B) with sign(A + B*sqrt(D)) > 0 iff the plane vector v lies in the
    open half-plane of phases strictly between the cut and the cut plus one."""
    x, y = v
    sgn = 1 if cut.strip % 2 == 0 else -1
    return (-sgn * (cut.c * x + cut.a * y), -sgn * cut.b * y)


def _in_window(cut: SurdCut, v) -> bool:
    a, b = _window_form(cut, v)
    return _surd_sign(a, b, cut.D) > 0


def _window_vector(c: Charge, cut: SurdCut):
    """The one of +-(-deg, rk) inside the window: the window form is linear,
    so -w lies in it exactly when w does not, unless the form is zero."""
    w = (-c.deg, c.rk)
    s = _surd_sign(*_window_form(cut, w), cut.D)
    if not s:
        raise DomainError("charge phase is not inside the open cut strip")
    return w if s > 0 else (c.deg, -c.rk)


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
    phases and all difference classes strictly inside the open cut strip.

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
    those digits and then over that state's digit period, replayed."""
    if length < 1:
        raise DomainError("chain length must be positive")
    w = _window_vector(e, cut)
    g, u, v = lifts._ext_gcd(*w)
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
    chain = []
    for k in itertools.islice(itertools.chain(digits, period), length):
        prev, w = w, (k * w[0] - prev[0], k * w[1] - prev[1])
        chain.append(Charge(w[1], -w[0]))
    return chain


def _pick_smooth_ident(spec: StableSubsetSpec):
    if spec.smooth_mode == "all":
        return "x"
    if spec.smooth_mode == "only":
        return sorted(spec.smooth_ids)[0] if spec.smooth_ids else None
    if spec.smooth_mode == "all-except":
        n = 0
        while True:
            cand = "x" if n == 0 else f"x{n}"
            if cand not in spec.smooth_ids:
                return cand
            n += 1
    return None


def non_noetherian_witness(t: TStructure, length: int) -> dict:
    """Explicit strictly ascending chain in the heart refuting Noetherianity.

    Lattice cut: after conjugating the cut phase to 1, degree steps of 1
    along a smooth point in the pushed-down set, or steps of 2 through the
    length-two torsion module when only the extreme stable is pushed down.
    Irrational cut: the lattice-strip chain seeded on the imaginary axis.
    """
    if is_noetherian(t):
        raise DomainError("heart is Noetherian; no witness exists")
    if length < 1:
        raise DomainError("witness length must be positive")
    if isinstance(t.cut, SurdCut):
        seed = (
            Charge(1, 0)
            if _in_window(t.cut, (0, 1))
            else Charge(-1, 0)
        )
        return {
            "kind": "strip-chain",
            "seed": seed,
            "charges": epi_chain(seed, t.cut, length),
        }
    word = autoeq.map_phase_to_one(t.cut.phase)
    ident = _pick_smooth_ident(t.minus)
    if ident is not None:
        return {
            "kind": "smooth-chain",
            "conjugation": word,
            "ident": ident,
            "charges": [Charge(1, m) for m in range(1, length + 1)],
            "cokernel": f"point object at {ident}, shifted down by one",
        }
    return {
        "kind": "extreme-chain",
        "conjugation": word,
        "charges": [Charge(1, 2 * m) for m in range(1, length + 1)],
        "cokernel": "length-two torsion module at the singular point",
    }
