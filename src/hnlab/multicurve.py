"""Two-component degeneration: rank data per component and exact walls.

Charges carry the total degree and the two component ranks.  The central
charge family sends (deg, rk1, rk2) to -deg + i(a*rk1 + b*rk2) for
positive parameters (a, b).  Against a declared quotient q the cross
product of central charges is the integer linear form alpha*a + beta*b
with alpha = q.deg*rk1 - deg*q.rk1 and beta = q.deg*rk2 - deg*q.rk2, so
walls of marginal stability are these forms' zero loci, and verdicts and
grid scans are their signs at integer multiples of (a, b).
"""

from __future__ import annotations

from fractions import Fraction

from .charges import DomainError, Value


class MultiCharge(Value):
    __slots__ = ("deg", "rk1", "rk2")

    def is_zero(self) -> bool:
        return self.deg == 0 and self.rk1 == 0 and self.rk2 == 0

    def __add__(self, other: "MultiCharge") -> "MultiCharge":
        return MultiCharge(
            self.deg + other.deg, self.rk1 + other.rk1, self.rk2 + other.rk2
        )


class DeclaredObject(Value):
    """A charge plus its declared nonzero proper quotient classes."""

    __slots__ = ("charge", "quotients")
    def __init__(self, charge: MultiCharge, quotients: tuple):
        for q in quotients:
            if q.is_zero() or q == charge:
                raise DomainError("quotients must be nonzero and proper")
        self._store(charge, quotients)


def w_ab(c: MultiCharge, a, b):
    """Central charge (-deg, a*rk1 + b*rk2) at parameters a, b > 0."""
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise DomainError("parameters must be positive")
    return (Fraction(-c.deg), a * c.rk1 + b * c.rk2)


def _forms(obj: DeclaredObject) -> list:
    """(alpha, beta) per quotient q: cross(W(obj), W(q)) = alpha*a + beta*b,
    which is > 0 iff phase(q) > phase(obj)."""
    d, r1, r2 = obj.charge.deg, obj.charge.rk1, obj.charge.rk2
    out = []  # a loop, not a comprehension: closure cells cost more here
    for q in obj.quotients:
        out.append((q.deg * r1 - d * q.rk1, q.deg * r2 - d * q.rk2))
    return out


def _verdict(forms, a: int, b: int) -> str:
    """Verdict at integers (a, b) proportional to the parameters."""
    tie = False
    for alpha, beta in forms:
        s = alpha * a + beta * b
        if s < 0:
            return "Unstable"
        if s == 0:
            tie = True
    return "StrictlySemistable" if tie else "Stable"


def is_semistable(obj: DeclaredObject, a, b) -> str:
    """"Stable", "StrictlySemistable" or "Unstable" at (a, b).

    The object is stable when its phase is strictly below the phase of
    every declared quotient; a phase tie without any violation gives
    strict semistability.
    """
    if obj.charge.is_zero():
        raise DomainError("zero charge has no stability verdict")
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise DomainError("parameters must be positive")
    # a = p/q and b = r/s scale to the integers p*s and r*q
    return _verdict(
        _forms(obj), a.numerator * b.denominator, b.numerator * a.denominator
    )


def walls(obj: DeclaredObject) -> list:
    """Marginal stability loci alpha*a + beta*b + gamma = 0 per quotient.

    Only walls meeting the open positive quadrant, those with mixed signs
    of alpha and beta, are kept.  Each wall notes on which sign of the
    form the object is destabilized.
    """
    out = []
    for q, (alpha, beta) in zip(obj.quotients, _forms(obj)):
        if alpha * beta < 0:
            out.append({"quotient": q, "wall": (alpha, beta, 0), "unstable_side": "-"})
    return out


def grid_shape(step, a_max, b_max) -> tuple:
    """(rows, columns) of the scan grid: b runs down from b_max in steps
    while positive, a runs up from step while at most a_max."""
    step, a_max, b_max = Fraction(step), Fraction(a_max), Fraction(b_max)
    if step <= 0 or a_max <= 0 or b_max <= 0:
        raise DomainError("step and bounds must be positive")
    return -(-b_max // step), a_max // step


def wall_scan(obj: DeclaredObject, step, a_max, b_max) -> list:
    """Row-major verdict grid over the open positive quadrant.

    Scaled by den(step) * den(b_max), a = i*step and b = b_max - j*step
    are the integers i*u and top - j*u, so a cell costs a few integer
    multiply-adds per quotient.
    """
    _, n_cols = grid_shape(step, a_max, b_max)
    if n_cols and obj.charge.is_zero():
        raise DomainError("zero charge has no stability verdict")
    step, b_max = Fraction(step), Fraction(b_max)
    u = step.numerator * b_max.denominator
    top = b_max.numerator * step.denominator
    forms = _forms(obj)
    cols = range(u, n_cols * u + 1, u)
    return [[_verdict(forms, a, b) for a in cols] for b in range(top, 0, -u)]


def example_bundle() -> DeclaredObject:
    """The rank (1,1) degree 2 bundle with its two declared quotients."""
    return DeclaredObject(
        MultiCharge(2, 1, 1),
        (MultiCharge(1, 1, 0), MultiCharge(3, 0, 1)),
    )
