"""Formal objects: HN pieces with JH compositions over stable labels.

An object of the derived category is modeled by the data its filtration
exposes: a strictly phase-decreasing list of semistable pieces, each
carrying a multiset of stable composition factors and a perfect/extreme
flag.  On top of this sit the four-type classification, a sound (never
guessing) Hom rule engine, the spherical test with connecting words, and
the chained torsion-free constructions with many filtration steps.

The Hom rules read HN phases: Hom(x, y) vanishes across a phase gap and is
nonzero inside an open window, with extra rules at equal phases, and Serre
duality (trivial canonical bundle) pairs Hom(x, y) with Hom(y, x[1]) when
one side is perfect.  `_rules` yields the rules that apply as (kind, rule)
pairs, lazily and in a fixed order; `hom_verdict` builds one Verdict from
the first and `applicable_rules` lists them all.  Each phase test is one
offset comparison, so no shifted phase or object is built.  The group
layer (`autoeq`) is imported on first use, by the two functions that use it.
"""

from .charges import Charge, DomainError, Phase, Value, _named, _rational


class StableLabel(Value):
    """A stable object at a fixed phase: the unique extreme one, or a
    perfect one tagged by an opaque smooth-point style identifier."""

    __slots__ = ("kind", "ident")
    def __init__(self, kind: str, ident: str | None = None):  # kind: "extreme" or "smooth"
        if kind not in ("extreme", "smooth"):
            raise DomainError(_named("unknown label kind", kind, repr))
        if kind == "extreme" and ident is not None:
            raise DomainError("extreme label carries no identifier")
        if kind == "smooth" and not ident:
            raise DomainError("smooth label requires an identifier")
        if kind == "smooth" and not isinstance(ident, str):
            raise DomainError("smooth label identifier must be a string")
        self._store(kind, ident)


EXTREME = StableLabel("extreme")


def smooth(ident: str) -> StableLabel:
    return StableLabel("smooth", ident)


class JHComposition(Value):
    """Composition series content: (label, multiplicity) with distinct labels."""

    __slots__ = ("entries",)
    def __init__(self, entries: tuple):
        if not entries:
            raise DomainError("composition series must be nonempty")
        labels = [lab for lab, _ in entries]
        if len(set(labels)) != len(labels):
            raise DomainError("composition labels must be distinct")
        for _, count in entries:
            if count.__class__ is not int or count < 1:
                raise DomainError("composition counts must be positive integers")
        self._store(tuple([(lab, count) for lab, count in entries]))

    def length(self) -> int:
        return sum(count for _, count in self.entries)

    def labels(self) -> set:
        return {lab for lab, _ in self.entries}

    def all_extreme(self) -> bool:
        return all(lab.kind == "extreme" for lab, _ in self.entries)


def jh(*entries) -> JHComposition:
    return JHComposition(tuple(entries))


_ONE_EXTREME = jh((EXTREME, 1))  # the composition of every sd_chain piece


class SemistablePiece(Value):
    __slots__ = ("phase", "jh", "perfect")
    def __init__(self, phase: Phase, jh: JHComposition, perfect: bool):
        if perfect.__class__ is not bool:
            raise DomainError("perfect must be True or False")
        if not perfect and not jh.all_extreme():
            raise DomainError("a non-perfect piece has only extreme factors")
        if perfect and jh.all_extreme() and jh.length() == 1:
            raise DomainError("the extreme stable object is not perfect")
        self._store(phase, jh, perfect)

    def charge(self) -> Charge:
        return self.phase.charge(self.jh.length())


class FormalObject(Value):
    """HN data: strictly phase-decreasing pieces, optional indecomposability."""

    __slots__ = ("pieces", "indecomposable")
    def __init__(self, pieces: tuple, indecomposable: bool | None = None):
        if indecomposable is not None and indecomposable.__class__ is not bool:
            raise DomainError("indecomposable must be None, True or False")
        for a, b in zip(pieces, pieces[1:]):
            if not a.phase > b.phase:
                raise DomainError("piece phases must strictly decrease")
        if indecomposable and not pieces:
            raise DomainError("the zero object is not indecomposable")
        if indecomposable and len(pieces) >= 2 and any(p.perfect for p in pieces):
            raise DomainError(
                "an indecomposable object with several pieces has only non-perfect pieces"
            )
        if indecomposable and len(pieces) == 1 and len(pieces[0].jh.entries) != 1:
            raise DomainError("an indecomposable semistable piece has one factor type")
        self._store(tuple(pieces), indecomposable)

    def is_perfect(self) -> bool:
        """All pieces perfect (the whole object is a perfect complex)."""
        for p in self.pieces:
            if not p.perfect:
                return False
        return True


def stable_piece(phase: Phase, label: StableLabel) -> SemistablePiece:
    return SemistablePiece(phase, jh((label, 1)), label.kind == "smooth")


def total_charge(x: FormalObject) -> Charge:
    c = Charge(0, 0)
    for p in x.pieces:
        c = c + p.charge()
    return c


def phi_plus(x: FormalObject) -> Phase:
    if not x.pieces:
        raise DomainError("empty object has no phases")
    return x.pieces[0].phase


def phi_minus(x: FormalObject) -> Phase:
    if not x.pieces:
        raise DomainError("empty object has no phases")
    return x.pieces[-1].phase


def shift(x: FormalObject, n: int) -> FormalObject:
    if n.__class__ is not int:
        raise DomainError("shift must be an integer")
    # moving every phase by n keeps the pieces' order, labels and flags
    return FormalObject._make(
        tuple(SemistablePiece._make(p.phase + n, p.jh, p.perfect) for p in x.pieces),
        x.indecomposable,
    )


def classify_type(x: FormalObject) -> str:
    """One of "I", "II", "III", "IV" for a flagged indecomposable object."""
    if not x.indecomposable:
        raise DomainError("classification applies to indecomposable objects")
    if len(x.pieces) != 1:
        return "IV"
    p = x.pieces[0]
    if any(lab.kind == "smooth" for lab in p.jh.labels()):
        return "I"
    if p.perfect:
        return "II"
    return "III"


class Verdict(Value):
    __slots__ = ("kind", "rule")  # kind: "zero", "nonzero", "unknown"; rule: None when unknown


def _is_stable(x: FormalObject) -> bool:
    return len(x.pieces) == 1 and x.pieces[0].jh.length() == 1


def _single_label(x: FormalObject):
    if len(x.pieces) == 1 and len(x.pieces[0].jh.entries) == 1:
        return x.pieces[0].jh.entries[0][0]
    return None


def _direct(x: FormalObject, y: FormalObject, n: int, prefix: str):
    """The phase/stability rules for Hom(x, y[n]) that apply, as (kind, rule)
    pairs with `prefix` on each rule name, in order, one at a time.

    The shift y[n] moves every phase of y by n and keeps its labels and
    flags, so y's top phase is compared with an offset of n and no phase is
    built: lo > hi + n is the gap, and hi + n < lo + 1 the window.
    """
    if not x.pieces or not y.pieces:
        raise DomainError("empty object has no phases")
    lo, hi = x.pieces[-1].phase, y.pieces[0].phase
    c = lo.cmp(hi, n)
    if c > 0:
        yield "zero", prefix + "hn-phase-gap"
    elif c < 0:
        if hi.cmp(lo, 1 - n) < 0:
            yield "nonzero", prefix + "open-phase-window"
    else:
        if _is_stable(x) and _is_stable(y):
            if x.pieces[0].jh.entries[0][0] == y.pieces[0].jh.entries[0][0]:
                yield "nonzero", prefix + "equal-phase-stable-identity"
            else:
                yield "zero", prefix + "equal-phase-stable-orthogonal"
        if x.indecomposable and y.indecomposable:
            if classify_type(x) != "I" and classify_type(y) != "I":
                yield "nonzero", prefix + "equal-phase-indecomposable-extreme"
            lx, ly = _single_label(x), _single_label(y)
            if lx is not None and lx == ly:
                yield "nonzero", prefix + "equal-phase-isotypic"


def _rules(x: FormalObject, y: FormalObject):
    """Every applicable rule for Hom(x, y) as a (kind, rule) pair, lazily:
    the direct rules, then, when one side is perfect, the rules for
    Hom(y, x[1]) that Serre duality (trivial canonical bundle) pairs with
    Hom(x, y), each named "serre-dual:<rule>"."""
    yield from _direct(x, y, 0, "")
    if x.is_perfect() or y.is_perfect():
        yield from _direct(y, x, 1, "serre-dual:")


def applicable_rules(x: FormalObject, y: FormalObject) -> list:
    """Every rule that applies to Hom(x, y), as Verdicts, in stream order."""
    return [Verdict(kind, rule) for kind, rule in _rules(x, y)]


def hom_verdict(x: FormalObject, y: FormalObject) -> Verdict:
    """Decide Hom(x, y) = 0 or not, or report Unknown; never guesses.  The
    first rule of the stream decides, and no later rule is computed."""
    if not x.pieces or not y.pieces:
        raise DomainError("hom verdict needs nonempty objects")
    for kind, rule in _rules(x, y):
        return Verdict(kind, rule)
    return Verdict("unknown", None)


_autoeq = None  # the group layer, kept here by _group_layer once imported


def _group_layer():
    """The autoeq module, imported by the first call that needs it, so that
    loading objects (for hom, sd or catalog) does not load the group layer.
    It is kept in a global: an import statement run on every call costs a
    few microseconds even when the module is loaded."""
    global _autoeq
    if _autoeq is None:
        from . import autoeq as _autoeq
    return _autoeq


def is_spherical(x: FormalObject) -> tuple[bool, str]:
    if len(x.pieces) != 1:
        return False, "not semistable"
    p = x.pieces[0]
    if p.jh.length() != 1:
        return False, "not stable"
    label = p.jh.entries[0][0]
    if label.kind == "extreme":
        return False, "extreme: two-dimensional self-extensions in every positive degree"
    return True, "perfect and stable"


def spherical_connect(s1: FormalObject, s2: FormalObject):
    """Generator word (and optional relabeling) carrying one spherical object
    to the charge, phase and label data of another."""
    for s in (s1, s2):
        ok, reason = is_spherical(s)
        if not ok:
            raise DomainError(f"spherical connect needs spherical input ({reason})")
    autoeq = _group_layer()
    p1, p2 = s1.pieces[0].phase, s2.pieces[0].phase
    id1 = s1.pieces[0].jh.entries[0][0].ident
    id2 = s2.pieces[0].jh.entries[0][0].ident
    w1 = autoeq.map_phase_to_one(p1)
    w2 = autoeq.map_phase_to_one(p2)
    # both words are canonical, so the inverse of w2 is its reversal and
    # only the runs at the seam can merge
    word = autoeq._join(w1, [(gen, -n) for gen, n in reversed(w2)])
    relabel = None if id1 == id2 else (id1, id2)
    return word, relabel


def sd_charge(d) -> Charge:
    """Charge of the chain-curve pushforward with twisting vector d."""
    d = list(d)
    if not d:
        raise DomainError("twisting vector must be nonempty")
    return Charge(len(d), 1 + sum(d))


def sd_chain(slopes) -> tuple:
    """Concatenated twisting vector and HN ledger for increasing slopes in (0,1).

    Each slope contributes the extreme stable charge (r, d) of its reduced
    fraction d/r; the vectors chain by incrementing the last entry of the
    part already built, so the total charge telescopes.  Slopes are read
    once by charges._rational as (d, r) pairs and compared by
    cross-multiplying.  Slope d/r gets the block (d-1, 0, ..., 0) of length
    r, whose charge matches; for d >= 2 its sheaf is not semistable, since
    restricting to components 2..r gives a quotient of slope 1/(r-1) < d/r.
    Chained, that block is d-1 at its start and 1 at its end (0 for the
    last block, which nothing follows; r >= 2 keeps the two apart), so the
    whole vector is written by index into one list of zeros, and every
    piece shares the one composition of a single extreme factor.
    """
    pairs = [(s.numerator, s.denominator) for s in map(_rational, slopes)]
    if not pairs:
        raise DomainError("need at least one slope")
    for d, r in pairs:
        if not 0 < d < r:
            raise DomainError("slopes must lie strictly between 0 and 1")
    for (a, r), (b, q) in zip(pairs, pairs[1:]):
        if not a * q < b * r:
            raise DomainError("slopes must strictly increase")
    # increasing slopes walked down give decreasing phases; the phase of
    # (r, d) has direction (-d, r), primitive with r > 0
    pairs.reverse()
    d0 = [0] * sum(r for _, r in pairs)
    end = 0
    for d, r in pairs:
        d0[end] = d - 1
        end += r
        d0[end - 1] = 1
    d0[-1] = 0
    # each piece is the extreme stable of charge (r, d), non-perfect
    pieces = tuple([SemistablePiece._make(Phase._make((-d, r), 0), _ONE_EXTREME, False)
                    for d, r in pairs])
    return tuple(d0), FormalObject._make(pieces, True)


def catalog() -> dict:
    """Named worked objects used throughout the tests and the CLI."""
    half = Phase((0, 1), 0)
    one = Phase((-1, 0), 0)
    quarter = Phase((1, 1), 0)
    three_quarter = Phase((-1, 1), 0)
    objs = {
        "structure-sheaf": FormalObject(
            (stable_piece(half, smooth("p0")),), indecomposable=True
        ),
        "smooth-point": FormalObject(
            (stable_piece(one, smooth("x")),), indecomposable=True
        ),
        "singular-point": FormalObject(
            (stable_piece(one, EXTREME),), indecomposable=True
        ),
        "zero-class-complex": FormalObject(
            (stable_piece(one + 1, EXTREME), stable_piece(one, EXTREME)),
            indecomposable=False,
        ),
        "etale-rank-two": FormalObject(
            (
                stable_piece(three_quarter, EXTREME),
                stable_piece(quarter, EXTREME),
            ),
            indecomposable=True,
        ),
        "band": FormalObject(
            (SemistablePiece(one, jh((EXTREME, 2)), perfect=True),),
            indecomposable=True,
        ),
        # Shadow archetypes: the five shapes a shadow can take.
        "torsion-multiple": FormalObject(
            (SemistablePiece(one, jh((smooth("x"), 2)), perfect=True),),
            indecomposable=True,
        ),
        "shifted-semistable-bundle": FormalObject(
            (stable_piece(Phase((-1, 2), -1), smooth("y")),),
            indecomposable=True,
        ),
        "three-step-complex": FormalObject(
            (
                stable_piece(Phase((1, 2), 2), EXTREME),
                stable_piece(Phase((-1, 1), 1), EXTREME),
                stable_piece(Phase((1, 1), 1), EXTREME),
            ),
            indecomposable=True,
        ),
        "unstable-torsion-free": FormalObject(
            (
                stable_piece(Phase((-1, 2), 0), EXTREME),
                stable_piece(Phase((1, 2), 0), EXTREME),
            ),
            indecomposable=True,
        ),
        "semistable-band": FormalObject(
            (SemistablePiece(half, jh((EXTREME, 2)), perfect=True),),
            indecomposable=True,
        ),
    }
    return objs


CATALOG_NOTES = {
    "etale-rank-two": "perfect as a whole object although every piece is extreme",
    "band": "perfect semistable with extreme factors; not stable",
}


def transform(x: FormalObject, word) -> FormalObject:
    """Apply a generator word: phases through the exact lift, labels fixed."""
    autoeq = _group_layer()
    word = autoeq.runs(word)
    # the lift is strictly increasing, so the pieces keep their strict order
    pieces = tuple(
        SemistablePiece._make(autoeq._run_phase(word, p.phase), p.jh, p.perfect)
        for p in x.pieces
    )
    return FormalObject._make(pieces, x.indecomposable)
