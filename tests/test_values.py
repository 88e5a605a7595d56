"""Value semantics of every immutable class: repr, equality, hashing,
immutability, keyword/default construction and the unchecked `_make`; and
the integer checks of the builders that take an offset or a length."""

import inspect
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hnlab import charges, lifts, objects, serialize, tstruct
from hnlab.charges import Charge, DomainError, Phase, PlaneVector, RationalCut, SurdCut, Value
from hnlab.multicurve import DeclaredObject, MultiCharge
from hnlab.objects import (
    EXTREME,
    FormalObject,
    JHComposition,
    SemistablePiece,
    StableLabel,
    Verdict,
    jh,
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


# each refused field type, and the message the constructor refuses it with
REFUSED = {
    "phase-float-dir": (lambda: Phase((0.5, 1)), "phase direction and shift must be integers"),
    "phase-bool-dir": (lambda: Phase((True, 1)), "phase direction and shift must be integers"),
    "phase-bool-shift": (lambda: Phase((0, 1), True), "phase direction and shift must be integers"),
    "phase-float-shift": (lambda: Phase((0, 1), 1.0), "phase direction and shift must be integers"),
    "surd-float-a": (lambda: SurdCut(0.5, 1, 1, 2),
                     "surd cut a, b, c, D and strip must be integers"),
    "surd-float-D": (lambda: SurdCut(1, 1, 1, 2.0),
                     "surd cut a, b, c, D and strip must be integers"),
    "surd-bool-c": (lambda: SurdCut(1, 1, True, 2),
                    "surd cut a, b, c, D and strip must be integers"),
    "surd-bool-strip": (lambda: SurdCut(1, 1, 1, 2, True),
                        "surd cut a, b, c, D and strip must be integers"),
    "jh-bool-count": (lambda: jh((EXTREME, True)), "composition counts must be positive integers"),
    "jh-float-count": (lambda: jh((EXTREME, 2.0)), "composition counts must be positive integers"),
    "label-int-id": (lambda: StableLabel("smooth", 5), "smooth label identifier must be a string"),
    "label-bytes-id": (lambda: StableLabel("smooth", b"x"),
                       "smooth label identifier must be a string"),
    "piece-int-perfect": (lambda: SemistablePiece(HALF, JH_P0, 1), "perfect must be True or False"),
    "piece-none-perfect": (lambda: SemistablePiece(LOWER.phase, JH_EXTREME, None),
                           "perfect must be True or False"),
    "spec-int-extreme": (lambda: StableSubsetSpec(1, "all"),
                         "include_extreme must be True or False"),
    "spec-str-extreme": (lambda: StableSubsetSpec("yes"), "include_extreme must be True or False"),
    "object-int-flag": (lambda: FormalObject((PIECE,), 0),
                        "indecomposable must be None, True or False"),
    "object-str-flag": (lambda: FormalObject((), "no"),
                        "indecomposable must be None, True or False"),
}


@pytest.mark.parametrize("build, message", list(REFUSED.values()), ids=list(REFUSED))
def test_constructor_refuses_field_types_the_decoders_refuse(build, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        build()


SHEAF = objects.catalog()["torsion-multiple"]
SMOOTH_HEART = TStructure(RationalCut(ONE), StableSubsetSpec(False, "all"))
# each builder of a phase, a cut or a chain, called with an offset or length
# n, and the name its refusal gives n
INTEGER_ARGUMENTS = {
    "phase-add": (lambda n: HALF + n, "phase offset"),
    "phase-sub": (lambda n: ONE - n, "phase offset"),
    "cut-shifted": (lambda n: GOLDEN.shifted(n), "cut shift"),
    "reduced-phase": (lambda n: charges.reduced_phase(Charge(1, 0), n), "extra shift"),
    "object-shift": (lambda n: objects.shift(SHEAF, n), "shift"),
    "from-matrix": (lambda n: lifts.from_matrix(((0, -1), (1, 0)), n), "winding"),
    "epi-chain": (lambda n: tstruct.epi_chain(Charge(1, 0), GOLDEN, n), "chain length"),
    "witness": (lambda n: tstruct.non_noetherian_witness(SMOOTH_HEART, n), "witness length"),
    "strip-witness": (lambda n: tstruct.non_noetherian_witness(TStructure(GOLDEN), n),
                      "witness length"),
}
NOT_INTEGERS = {"bool": True, "float": 0.5, "str": "3", "none": None}


@pytest.mark.parametrize("value", list(NOT_INTEGERS.values()), ids=list(NOT_INTEGERS))
@pytest.mark.parametrize("build, name", list(INTEGER_ARGUMENTS.values()), ids=list(INTEGER_ARGUMENTS))
def test_builders_refuse_a_non_integer_offset_or_length(build, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be an integer$"):
        build(value)


@pytest.mark.parametrize("value", list(NOT_INTEGERS.values()), ids=list(NOT_INTEGERS))
def test_a_noetherian_heart_is_refused_before_the_witness_length(value):
    with pytest.raises(DomainError, match="^heart is Noetherian; no witness exists$"):
        tstruct.non_noetherian_witness(TStructure(RationalCut(ONE)), value)


def test_builders_keep_their_integer_results():
    assert HALF + 3 == Phase((0, 1), 3) and ONE - 2 == Phase((-1, 0), -2)
    assert GOLDEN.shifted(2) == SurdCut(1, 1, 2, 5, 1) and GOLDEN.shifted(0) == GOLDEN
    assert charges.reduced_phase(Charge(1, 0), 2) == Phase((0, 1), 2)
    assert charges.reduced_phase(Charge(-1, 0), -1) == Phase((0, 1), -2)
    assert [p.phase for p in objects.shift(SHEAF, -3).pieces] == [p.phase - 3 for p in SHEAF.pieces]
    assert lifts.from_matrix(((0, -1), (1, 0)), 1).anchor == FLIP.anchor + 2
    chain = tstruct.epi_chain(Charge(1, 0), GOLDEN, 5)
    assert len(chain) == 5 and tstruct.epi_chain(Charge(1, 0), GOLDEN, 2) == chain[:2]
    assert tstruct.non_noetherian_witness(SMOOTH_HEART, 2)["charges"] == [Charge(1, 1), Charge(1, 2)]


def _json_round_trip(value, encode, decode):
    return decode(json.loads(json.dumps(encode(value))))


# any field value: ints of each sign, bools, floats, None, strings and Fractions
ANY = st.one_of(st.integers(-9, 9), st.booleans(), st.floats(-9, 9), st.none(),
                st.text(max_size=2), st.fractions(max_denominator=3))


class TestCheckedValuesRoundTrip:
    """Every value a checked constructor builds, from fields of any type,
    comes back equal from its JSON encoding; any other input is refused
    with DomainError."""

    @staticmethod
    def _built(make, *args):
        try:
            return make(*args)
        except DomainError:
            return None

    @settings(max_examples=300, deadline=None)
    @given(ANY, ANY, ANY)
    def test_phase(self, x, y, shift):
        p = self._built(Phase, (x, y), shift)
        if p is not None:
            assert _json_round_trip(p, serialize.encode_phase, serialize.decode_phase) == p

    @settings(max_examples=300, deadline=None)
    @given(ANY, ANY, ANY, ANY, ANY)
    def test_surd_cut(self, a, b, c, d, strip):
        cut = self._built(SurdCut, a, b, c, d, strip)
        if cut is not None:
            assert _json_round_trip(cut, serialize.encode_cut, serialize.decode_cut) == cut

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["extreme", "smooth"]), ANY, ANY, ANY, ANY)
    def test_object(self, kind, ident, count, perfect, indecomposable):
        label = self._built(StableLabel, kind, None if kind == "extreme" else ident)
        composition = label and self._built(JHComposition, ((label, count),))
        piece = composition and self._built(SemistablePiece, HALF, composition, perfect)
        x = piece and self._built(FormalObject, (piece,), indecomposable)
        if x is not None:
            assert _json_round_trip(x, serialize.encode_object, serialize.decode_object) == x

    @settings(max_examples=300, deadline=None)
    @given(ANY, st.sampled_from(["none", "all", "only", "all-except"]),
           st.frozensets(st.text(max_size=2), max_size=3))
    def test_subset(self, extreme, mode, ids):
        spec = self._built(StableSubsetSpec, extreme, mode, ids)
        if spec is not None:
            assert _json_round_trip(spec, serialize.encode_subset, serialize.decode_subset) == spec


# a checked value built from lists, the value built from tuples, and its codec
FROM_LISTS = {
    "phase": (lambda: Phase([0, 1], 2), Phase((0, 1), 2),
              serialize.encode_phase, serialize.decode_phase),
    "composition": (lambda: JHComposition([(EXTREME, 2)]), JH_EXTREME, None, None),
    "composition-list-pairs": (lambda: JHComposition([[P0, 1]]), JH_P0, None, None),
    "zero-object": (lambda: FormalObject([]), FormalObject(()),
                    serialize.encode_object, serialize.decode_object),
    "object": (lambda: FormalObject([PIECE, LOWER], False), FormalObject((PIECE, LOWER), False),
               serialize.encode_object, serialize.decode_object),
    "object-list-composition": (
        lambda: FormalObject([SemistablePiece(HALF, JHComposition([[P0, 1]]), True)]),
        FormalObject((PIECE,)), serialize.encode_object, serialize.decode_object),
    "declared": (lambda: DeclaredObject(M, list(Q)), DeclaredObject(M, Q),
                 serialize.encode_declared, serialize.decode_declared),
}


@pytest.mark.parametrize("build, expected, encode, decode", list(FROM_LISTS.values()),
                         ids=list(FROM_LISTS))
def test_checked_constructors_store_tuples(build, expected, encode, decode):
    """A list argument is stored as a tuple, so the value hashes, equals the
    one built from tuples and comes back equal from its JSON encoding."""
    value = build()
    assert value == expected and hash(value) == hash(expected)
    if encode is not None:
        assert _json_round_trip(value, encode, decode) == value


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


VALUE_CLASSES = sorted(_subclasses(Value), key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def _per_class_code(cls):
    """The code of _store, _make, __eq__ and __hash__ compiled from the
    class's own source, with its slot names written in."""
    args = ", ".join(cls.__slots__)
    store = "; ".join(f"set_{n}(self, {n})" for n in cls.__slots__)
    key = "(" + "".join(f"self.{n}, " for n in cls.__slots__) + ")"
    scope = {}
    exec(f"def _store(self, {args}): {store}\n"
         f"def _make({args}): self = new(cls); {store}; return self\n"
         f"def __eq__(self, other): return {key} == {key.replace('self.', 'other.')}"
         " if other.__class__ is self.__class__ else NotImplemented\n"
         f"def __hash__(self): return hash({key})", scope)
    return [scope[m].__code__ for m in ("_store", "_make", "__eq__", "__hash__")]


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=[cls.__name__ for cls in VALUE_CLASSES])
def test_methods_are_the_code_a_class_compiles_from_its_own_source(cls):
    """The methods compiled once per slot count, with the class's slot
    names put in, are the ones the class's own source compiles to."""
    methods = (cls._store, cls._make, cls.__eq__, cls.__hash__)
    for method, want in zip(methods, _per_class_code(cls)):
        got = method.__code__
        for attr in ("co_code", "co_names", "co_varnames", "co_consts", "co_name",
                     "co_argcount", "co_firstlineno"):
            assert getattr(got, attr) == getattr(want, attr), (method.__name__, attr)
        assert method.__name__ == method.__qualname__ == want.co_name


def test_code_is_compiled_once_per_slot_count():
    assert set(charges._VALUE_CODE) == {len(cls.__slots__) for cls in VALUE_CLASSES}
    assert inspect.signature(Charge) == inspect.signature(lambda rk, deg: None)
    missing = r"^_store\(\) missing 1 required positional argument: 'deg'$"
    with pytest.raises(TypeError, match=missing):
        Charge(1)
    with pytest.raises(TypeError, match=r"^_make\(\) got an unexpected keyword argument 'x'$"):
        Charge._make(1, x=2)
