"""Value semantics of every immutable class: repr, equality, hashing,
immutability, keyword/default construction and the unchecked `_make`."""

from fractions import Fraction

import pytest

from hnlab import lifts
from hnlab.charges import Charge, DomainError, Phase, PlaneVector, RationalCut, SurdCut
from hnlab.multicurve import DeclaredObject, MultiCharge
from hnlab.objects import (
    EXTREME,
    FormalObject,
    JHComposition,
    SemistablePiece,
    StableLabel,
    Verdict,
)
from hnlab.stabcond import StabilityCondition
from hnlab.tstruct import StableSubsetSpec, TStructure

HALF = Phase((0, 1), 0)
ONE = Phase((-1, 0), 0)
P0 = StableLabel("smooth", "p0")
JH_P0 = JHComposition(((P0, 1),))
JH_EXTREME = JHComposition(((EXTREME, 2),))
PIECE = SemistablePiece(HALF, JH_P0, True)
LOWER = SemistablePiece(Phase((1, 1), -1), JH_EXTREME, False)
FLIP = lifts.from_matrix(((0, -1), (1, 0)))
QUARTERS = ((Fraction(1, 2), Fraction(-1, 4)), (0, Fraction(3, 4)))  # ((2, -1), (0, 3)) / 4
SPEC = StableSubsetSpec(True, "only", frozenset({"p"}))
GOLDEN = SurdCut(1, 1, 2, 5, -1)
M = MultiCharge(2, 1, 1)
Q = (MultiCharge(1, 1, 0),)

# class -> (field names, field values, values differing in one field, repr)
CASES = {
    Charge: (("rk", "deg"), (1, 2), (1, 3), "Charge(rk=1, deg=2)"),
    PlaneVector: (("x", "y"), (1, 2), (2, 2), "PlaneVector(x=1, y=2)"),
    Phase: (("dir", "shift"), ((0, 1), 3), ((0, 1), 4), "Phase(dir=(0, 1), shift=3)"),
    RationalCut: (("phase",), (HALF,), (ONE,), "RationalCut(phase=Phase(dir=(0, 1), shift=0))"),
    SurdCut: (
        ("a", "b", "c", "D", "strip"), (1, 1, 2, 5, -1), (1, 1, 2, 5, 0),
        "SurdCut(a=1, b=1, c=2, D=5, strip=-1)",
    ),
    lifts.Lift: (
        ("matrix", "anchor"), (QUARTERS, Phase((-1, 3), 0)), (FLIP.matrix, FLIP.anchor),
        "Lift(ray=((2, -1), (0, 3)), den=4, anchor=Phase(dir=(-1, 3), shift=0))",
    ),
    MultiCharge: (("deg", "rk1", "rk2"), (2, 1, 1), (2, 1, 0), "MultiCharge(deg=2, rk1=1, rk2=1)"),
    DeclaredObject: (
        ("charge", "quotients"), (M, Q), (M, ()),
        "DeclaredObject(charge=MultiCharge(deg=2, rk1=1, rk2=1), "
        "quotients=(MultiCharge(deg=1, rk1=1, rk2=0),))",
    ),
    StableLabel: (("kind", "ident"), ("smooth", "p0"), ("smooth", "p1"),
                  "StableLabel(kind='smooth', ident='p0')"),
    JHComposition: (
        ("entries",), (((P0, 1),),), (((P0, 2),),),
        "JHComposition(entries=((StableLabel(kind='smooth', ident='p0'), 1),))",
    ),
    SemistablePiece: (
        ("phase", "jh", "perfect"), (HALF, JH_P0, True), (ONE, JH_P0, True),
        "SemistablePiece(phase=Phase(dir=(0, 1), shift=0), jh=JHComposition("
        "entries=((StableLabel(kind='smooth', ident='p0'), 1),)), perfect=True)",
    ),
    FormalObject: (
        ("pieces", "indecomposable"), ((PIECE, LOWER), False), ((PIECE, LOWER), None),
        "FormalObject(pieces=(SemistablePiece(phase=Phase(dir=(0, 1), shift=0), "
        "jh=JHComposition(entries=((StableLabel(kind='smooth', ident='p0'), 1),)), "
        "perfect=True), SemistablePiece(phase=Phase(dir=(1, 1), shift=-1), "
        "jh=JHComposition(entries=((StableLabel(kind='extreme', ident=None), 2),)), "
        "perfect=False)), indecomposable=False)",
    ),
    Verdict: (("kind", "rule"), ("zero", "phase"), ("nonzero", "phase"),
              "Verdict(kind='zero', rule='phase')"),
    StabilityCondition: (
        ("translate",), (lifts.IDENTITY,), (FLIP,),
        "StabilityCondition(translate=Lift(ray=((1, 0), (0, 1)), den=1, "
        "anchor=Phase(dir=(0, 1), shift=0)))",
    ),
    StableSubsetSpec: (
        ("include_extreme", "smooth_mode", "smooth_ids"),
        (True, "only", frozenset({"p"})), (True, "all-except", frozenset({"p"})),
        "StableSubsetSpec(include_extreme=True, smooth_mode='only', "
        "smooth_ids=frozenset({'p'}))",
    ),
    TStructure: (
        ("cut", "minus"), (RationalCut(HALF), SPEC), (RationalCut(ONE), SPEC),
        "TStructure(cut=RationalCut(phase=Phase(dir=(0, 1), shift=0)), "
        "minus=StableSubsetSpec(include_extreme=True, smooth_mode='only', "
        "smooth_ids=frozenset({'p'})))",
    ),
}
CLASSES = list(CASES)
IDS = [cls.__name__ for cls in CLASSES]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
class TestValueSemantics:
    def test_repr(self, cls):
        _, values, _, text = CASES[cls]
        assert repr(cls(*values)) == text

    def test_equal_values(self, cls):
        _, values, _, _ = CASES[cls]
        a, b = cls(*values), cls(*values)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_one_field_differs(self, cls):
        _, values, other, _ = CASES[cls]
        a, b = cls(*values), cls(*other)
        assert a != b and not a == b

    def test_never_equals_a_tuple(self, cls):
        _, values, _, _ = CASES[cls]
        a = cls(*values)
        assert a != values and values != a
        if len(values) == 1:
            assert a != values[0]

    def test_keyword_construction(self, cls):
        names, values, _, _ = CASES[cls]
        a = cls(**dict(zip(names, values)))
        assert a == cls(*values)
        assert tuple(getattr(a, n) for n in names) == values

    def test_make_equals_the_constructor(self, cls):
        _, values, _, _ = CASES[cls]
        a = cls(*values)
        slots = tuple(getattr(a, n) for n in cls.__slots__)
        b = cls._make(*slots)
        assert type(b) is cls and b == a and hash(b) == hash(a)
        assert tuple(getattr(b, n) for n in cls.__slots__) == slots

    def test_assignment_and_deletion_refused(self, cls):
        names, values, other, _ = CASES[cls]
        a = cls(*values)
        for name, value in zip(names, other):
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == cls(*values)


def test_equality_is_per_class():
    assert Charge(1, 2) != PlaneVector(1, 2)
    assert PlaneVector(1, 2) != Charge(1, 2)
    assert not Charge(1, 2) == PlaneVector(1, 2)
    assert MultiCharge(1, 2, 0) != (1, 2, 0)
    assert RationalCut(HALF) != HALF


def test_defaults():
    assert Phase((0, 1)) == Phase((0, 1), 0)
    assert SurdCut(1, 1, 2, 5) == SurdCut(1, 1, 2, 5, strip=0)
    assert SurdCut(1, 1, 2, 5, strip=-1) == GOLDEN
    assert SurdCut(a=1, b=1, c=2, D=5, strip=-1) == GOLDEN
    spec = StableSubsetSpec()
    assert (spec.include_extreme, spec.smooth_mode, spec.smooth_ids) == (False, "none", frozenset())
    assert StableSubsetSpec(smooth_mode="all") == StableSubsetSpec(False, "all")
    assert TStructure(GOLDEN).minus == StableSubsetSpec()
    assert TStructure(cut=GOLDEN) == TStructure(GOLDEN, StableSubsetSpec())
    assert StableLabel("extreme").ident is None
    assert StableLabel("extreme") == EXTREME
    assert FormalObject((PIECE,)).indecomposable is None


def test_lift_fields_are_ray_den_and_anchor():
    g = lifts.Lift(QUARTERS, Phase((-1, 3), 0))
    assert lifts.Lift.__slots__ == ("ray", "den", "anchor")
    assert (g.ray, g.den) == (((2, -1), (0, 3)), 4)
    assert g.matrix == QUARTERS and g.kmatrix == lifts.swap_axes(QUARTERS)
    for name in ("ray", "den", "matrix", "kmatrix"):
        with pytest.raises(AttributeError):
            setattr(g, name, ((1, 0), (0, 1)))
    h = lifts.Lift(g.matrix, g.anchor)
    assert h == g and hash(h) == hash(g)
    # den 1: the matrix is the ray itself, however its entries were written
    k = lifts.Lift(((Fraction(4, 2), -1), (0, Fraction(3))), Phase((-1, 3), 0))
    assert k.den == 1 and k.matrix is k.ray == ((2, -1), (0, 3))
    assert k != g


def test_only_store_only_classes_get_the_compiled_init():
    compiled = {Charge, PlaneVector, RationalCut, MultiCharge, StabilityCondition, Verdict}
    for cls in CLASSES:
        assert (cls.__init__ is cls._store) == (cls in compiled), cls


def test_make_skips_the_checks():
    assert Phase._make((2, 2), 0).dir == (2, 2)
    with pytest.raises(DomainError):
        Phase((2, 2), 0)


def test_phase_order_is_kept():
    assert HALF < ONE and ONE > HALF and HALF <= HALF and ONE >= HALF
    with pytest.raises(TypeError):
        Charge(1, 2) < Charge(1, 3)
