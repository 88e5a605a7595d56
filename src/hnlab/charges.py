"""Exact arithmetic for K-group charges, phases, slopes and phase cuts.

Everything in this module is integer/rational arithmetic; there is no
floating point anywhere in the public API.  A charge is a pair
(rank, degree) in Z^2, its central charge is the Gaussian integer
Z = -deg + i*rk, and its phase is arg(Z)/pi lifted to the real line.
Phases are stored exactly as a primitive lattice direction in the closed
upper half-plane sector together with an integer strip shift.
"""

import math
from types import FunctionType


class DomainError(ValueError):
    """Raised when an operation is applied outside its domain."""


def _named(noun: str, v, show=str) -> str:
    """`noun` and the refused value v for an error message, or `noun` alone
    when show(v) raises ValueError: str() and repr() of an int with more
    digits than the interpreter's limit (4,300 by default) do."""
    try:
        return f"{noun} {show(v)}"
    except ValueError:
        return noun


_VALUE_CODE = {}  # slot count -> the code of Value's four compiled methods


def _value_code(n: int) -> tuple:
    """The code of _store, _make, __eq__ and __hash__ for a class of n
    slots, with its fields named _0, _1, ...: compiled on the first class
    of n slots and kept for the rest."""
    if n not in _VALUE_CODE:
        fields = [f"_{i}" for i in range(n)]
        args = ", ".join(fields)
        store = "; ".join(f"set_{f}(self, {f})" for f in fields)
        key = "(" + "".join(f"self.{f}, " for f in fields) + ")"
        scope = {}
        exec(f"def _store(self, {args}): {store}\n"
             f"def _make({args}): self = new(cls); {store}; return self\n"
             f"def __eq__(self, other): return {key} == {key.replace('self.', 'other.')}"
             " if other.__class__ is self.__class__ else NotImplemented\n"
             f"def __hash__(self): return hash({key})", scope)
        _VALUE_CODE[n] = tuple(scope[name].__code__
                               for name in ("_store", "_make", "__eq__", "__hash__"))
    return _VALUE_CODE[n]


class Value:
    """Immutable value whose fields are its ``__slots__``.

    ``__init_subclass__`` gives each class ``_store(self, *slots)``, the
    ``__init__`` of a class that defines none and the last step of a checked
    one; ``_make(*slots)``, a value stored with no ``__init__``, for one
    rebuilt from checked parts by an operation that keeps its invariants;
    and ``__eq__`` (same class only) and ``__hash__`` over the slots, which
    the repr shows.  The four are compiled once per slot count
    (`_value_code`), and each class gets copies of that code with its slot
    names in place of the placeholder fields, so each method is the one a
    class would compile from its own source and costs what a hand-written
    one does.  Fields cannot be assigned or deleted."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = {}  # placeholder field and setter names -> this class's
        for i, n in enumerate(cls.__slots__):
            names[f"_{i}"], names[f"set__{i}"] = n, f"set_{n}"

        def renamed(code):
            return code.replace(co_varnames=tuple([names.get(v, v) for v in code.co_varnames]),
                                co_names=tuple([names.get(v, v) for v in code.co_names]))

        scope = {f"set_{n}": getattr(cls, n).__set__ for n in cls.__slots__}
        scope.update(cls=cls, new=object.__new__)
        store, make, eq, hash_ = [FunctionType(renamed(code), scope)
                                  for code in _value_code(len(cls.__slots__))]
        cls._store, cls._make = store, staticmethod(make)
        cls.__eq__, cls.__hash__ = eq, hash_
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._store

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


# The canonical sector S = {y > 0} u {y = 0, x < 0}.  Directions in S have
# phase value in (0, 1]: (0,1) is 1/2, (-1,0) is 1.


def cross(u: tuple[int, int], v: tuple[int, int]):
    return u[0] * v[1] - u[1] * v[0]


def in_sector(v: tuple[int, int]) -> bool:
    x, y = v
    return y > 0 or (y == 0 and x < 0)


def normalize_direction(v) -> tuple[tuple[int, int], bool]:
    """Divide a nonzero integer vector by its gcd to a primitive direction in S.

    Returns (direction, flipped); flipped is True when the input pointed
    into the complement of S, so the sign had to be reversed (which lowers
    the represented phase by one).
    """
    x, y = v
    if x == 0 and y == 0:
        raise DomainError("zero vector has no direction")
    g = math.gcd(x, y)
    x, y = x // g, y // g
    if in_sector((x, y)):
        return (x, y), False
    return (-x, -y), True


class Charge(Value):
    """Class in the Grothendieck group, recorded as (rank, degree)."""

    __slots__ = ("rk", "deg")

    def __add__(self, other: "Charge") -> "Charge":
        return Charge(self.rk + other.rk, self.deg + other.deg)

    def __sub__(self, other: "Charge") -> "Charge":
        return Charge(self.rk - other.rk, self.deg - other.deg)

    def __neg__(self) -> "Charge":
        return Charge(-self.rk, -self.deg)

    def __mul__(self, n: int) -> "Charge":
        return Charge(n * self.rk, n * self.deg)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.rk == 0 and self.deg == 0


class PlaneVector(Value):
    """Central charge Z = -deg + i*rk as an integer point (x, y) = (Re, Im)."""

    __slots__ = ("x", "y")


def central_charge(c: Charge) -> PlaneVector:
    return PlaneVector(-c.deg, c.rk)


_Fraction = None  # fractions.Fraction, kept here by _fraction once imported


def _fraction():
    """fractions.Fraction, imported by the first call that reads or builds a
    rational, so that a process working on integers alone (most subcommands
    of the CLI) does not load fractions and the decimal module it imports.
    It is kept in a global: an import statement run on every call costs a
    few microseconds even when the module is loaded."""
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction


def slope(c: Charge):
    """Slope deg/rk as a Fraction; None for nonzero torsion classes, whose
    slope is infinite (the API has no floats)."""
    if c.is_zero():
        raise DomainError("slope undefined on zero class")
    if c.rk == 0:
        return None
    return _fraction()(c.deg, c.rk)


def _rational(x):
    """x itself when it is an int or a Fraction, else Fraction(x); a string
    with an `e` or `E` is refused before Fraction reads 1e999999 as a
    million-digit integer, a float (which holds a binary value, not the one
    written) and a bool (which is no number) are refused, and a value
    Fraction cannot read (a malformed or over-long string, a zero
    denominator, None) is a DomainError too.  Either way the result is
    exact, with integer `numerator` and positive `denominator`, so callers
    read a value once and then work on ints; a Fraction is not rebuilt and
    an int not wrapped.  fractions is loaded by `_fraction`, which runs only
    for a value that is neither an int nor, once it has run, a Fraction:
    an int never loads fractions, and an int or a Fraction is returned
    after one class test."""
    cls = x.__class__
    if cls is int or cls is _Fraction:
        return x
    if cls is bool or isinstance(x, float):
        raise DomainError(f"bad rational {x!r}")
    Fraction = _fraction()
    if cls is Fraction:  # a Fraction read before the loader has run
        return x
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise DomainError(f'bad rational {x!r}: write it as "p/q"')
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise DomainError(_named("bad rational", x, repr)) from exc


def mass_squared(c: Charge) -> int:
    """Squared length of the central charge; zero iff the charge is zero."""
    return c.rk * c.rk + c.deg * c.deg


def euler_form(a: Charge, b: Charge) -> int:
    """Antisymmetric pairing rk(a)deg(b) - deg(a)rk(b)."""
    return a.rk * b.deg - a.deg * b.rk


class Phase(Value):
    """Exact phase: primitive direction in S plus an integer strip shift.

    The represented real value is reduced(dir) + shift with reduced in
    (0, 1].  Comparison is by shift first, then by the sign of the cross
    product of directions (positive cross means smaller phase); `cmp` takes
    an integer offset for the other side, so p < q + n needs no q + n.  A direction
    just made primitive and put in S (by normalize_direction or a unimodular
    map of a valid direction) is built by `Phase._make`, without the checks.
    """

    __slots__ = ("dir", "shift")
    def __init__(self, dir: tuple[int, int], shift: int = 0):
        x, y = dir
        if x.__class__ is not int or y.__class__ is not int or shift.__class__ is not int:
            raise DomainError("phase direction and shift must be integers")
        if math.gcd(x, y) != 1:
            raise DomainError(f"{_named('direction', dir)} is not primitive")
        if not in_sector(dir):
            raise DomainError(f"{_named('direction', dir)} outside canonical sector")
        self._store((x, y), shift)

    def charge(self, length: int = 1) -> Charge:
        """Charge of a semistable class of this phase and JH length."""
        base = Charge(self.dir[1], -self.dir[0])
        if self.shift % 2 != 0:
            base = -base
        return length * base

    def __add__(self, n: int) -> "Phase":
        if n.__class__ is not int:
            raise DomainError("phase offset must be an integer")
        return Phase._make(self.dir, self.shift + n)

    def __sub__(self, n: int) -> "Phase":
        if n.__class__ is not int:
            raise DomainError("phase offset must be an integer")
        return Phase._make(self.dir, self.shift - n)

    def approx(self) -> float:
        """Floating approximation of the value; for display and test oracles
        only.  atan2 of a direction in S lies in (0, pi]."""
        x, y = self.dir
        return math.atan2(y, x) / math.pi + self.shift

    def cmp(self, other: "Phase", offset: int = 0) -> int:
        """Sign of self - (other + offset): -1, 0 or 1.

        other + offset is the same direction with its shift moved by
        offset, so it is compared without being built: strip shifts first,
        then the sign of cross(self.dir, other.dir), written out here."""
        s, t = self.shift, other.shift + offset
        if s != t:
            return -1 if s < t else 1
        (a, b), (c, d) = self.dir, other.dir
        k = a * d - b * c
        if k > 0:
            return -1
        return 1 if k < 0 else 0

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    @staticmethod
    def from_value(v) -> "Phase":
        """Phase for an exactly representable rational value.

        Only values whose direction is a lattice ray are representable:
        v - shift must be one of 1/4, 1/2, 3/4 or 1, so 4v = 4*shift + k
        for k in 1..4, the k-th quarter direction, read on integers.
        """
        v = _rational(v)
        q, rem = divmod(4 * v.numerator, v.denominator)
        if rem:
            raise DomainError(f"{_named('value', v)} is not the phase of a lattice ray")
        n, k = divmod(q - 1, 4)
        return Phase._make(_QUARTERS[k], n)


_QUARTERS = ((1, 1), (0, 1), (-1, 1), (-1, 0))  # directions of phases 1/4, 1/2, 3/4, 1


def reduced_phase(c: Charge, extra_shift: int = 0) -> Phase:
    """Phase of a nonzero class, reduced into (-1, 1] plus an optional shift.

    Classes with Z in the sector S get shift 0 (value in (0, 1]); classes
    pointing into the lower half-plane get shift -1 (value in (-1, 0]).
    """
    if extra_shift.__class__ is not int:
        raise DomainError("extra shift must be an integer")
    if c.is_zero():
        raise DomainError("phase undefined on zero class")
    d, flipped = normalize_direction((-c.deg, c.rk))
    return Phase._make(d, extra_shift - (1 if flipped else 0))


def _surd_sign(a: int, b: int, d_rad: int) -> int:
    """Sign of a + b*sqrt(D) for non-square positive D."""
    if b == 0:
        return 0 if a == 0 else (1 if a > 0 else -1)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    s = 1 if a * a < b * b * d_rad else -1
    return s if b > 0 else -s


def _ext_gcd(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _is_square(n: int) -> bool:
    """Whether n >= 0 is a perfect square."""
    r = math.isqrt(n)
    return r * r == n


class RationalCut(Value):
    """Phase cut at a lattice phase."""

    __slots__ = ("phase",)


class SurdCut(Value):
    """Irrational phase cut at slope (a + b*sqrt(D))/c placed in strip (strip, strip+1]."""

    __slots__ = ("a", "b", "c", "D", "strip")
    def __init__(self, a: int, b: int, c: int, D: int, strip: int = 0):
        if any(v.__class__ is not int for v in (a, b, c, D, strip)):
            raise DomainError("surd cut a, b, c, D and strip must be integers")
        if c <= 0:
            raise DomainError("surd cut denominator must be positive")
        if b == 0 or D <= 0 or _is_square(D):
            raise DomainError("surd cut slope must be irrational")
        self._store(a, b, c, D, strip)

    def shifted(self, n: int) -> "SurdCut":
        if n.__class__ is not int:
            raise DomainError("cut shift must be an integer")
        # a shift keeps the slope, which the constructor has checked
        return SurdCut._make(self.a, self.b, self.c, self.D, self.strip + n)

    def approx(self) -> float:
        """Floating value of the cut phase; test oracle only."""
        s = (self.a + self.b * math.sqrt(self.D)) / self.c
        r = 1 - math.atan2(1.0, s) / math.pi  # -cot(pi r) = s, r in (0, 1)
        return self.strip + r


def cut_cmp(cut: RationalCut | SurdCut, p: Phase, offset: int = 0) -> int:
    """Sign of cut - (p + offset), exactly, as `Phase.cmp` compares phases.

    Returns -1 (cut below p + offset), 0 (equal; rational cuts only) or 1;
    p + offset is p's direction with its strip moved by offset, so it is
    compared without being built, and comparing at offset -k is comparing
    the cut moved up k strips against p.  Within one strip the phase is a
    strictly increasing function of the slope, so a surd cut
    (a + b*sqrt(D))/c compares against the slope -x/y of the direction
    (x, y) as the integer surd a*y + c*x + b*y*sqrt(D) compares against
    zero (c > 0, and y > 0 off the torsion axis).
    """
    if isinstance(cut, RationalCut):
        return cut.phase.cmp(p, offset)
    # Cut value lies strictly inside (strip, strip + 1).
    s = p.shift + offset
    if s != cut.strip:
        return -1 if cut.strip < s else 1
    x, y = p.dir
    if y == 0:  # torsion direction: maximal phase in the strip
        return -1
    return _surd_sign(cut.a * y + cut.c * x, cut.b * y, cut.D)
