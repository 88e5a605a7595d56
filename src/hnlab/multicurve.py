"""Two-component degeneration: rank data per component and exact walls.

Charges carry the total degree and the two component ranks.  The central
charge family sends (deg, rk1, rk2) to -deg + i(a*rk1 + b*rk2) for
positive parameters (a, b).  Against a declared quotient q the cross
product of central charges is the integer linear form alpha*a + beta*b
with alpha = q.deg*rk1 - deg*q.rk1 and beta = q.deg*rk2 - deg*q.rk2, so
walls of marginal stability are these forms' zero loci, and verdicts and
grid scans are their signs at integer multiples of (a, b).  Each
parameter, step and bound is read once as an exact (numerator, positive
denominator) pair; every sign test, floor and ceiling after that is on
ints, so a verdict costs a few integer multiply-adds per quotient.
"""

from .charges import DomainError, Value, _rational


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
        self._store(charge, tuple(quotients))


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
    a, b = _rational(a), _rational(b)
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    if p <= 0 or r <= 0:
        raise DomainError("parameters must be positive")
    # a = p/q and b = r/s scale to the integers p*s and r*q
    return _verdict(_forms(obj), p * s, r * q)


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
    step, a_max, b_max = _rational(step), _rational(a_max), _rational(b_max)
    sn, sd = step.numerator, step.denominator
    an, bn = a_max.numerator, b_max.numerator
    if sn <= 0 or an <= 0 or bn <= 0:
        raise DomainError("step and bounds must be positive")
    # ceil(b_max/step) and floor(a_max/step)
    return -(-bn * sd // (b_max.denominator * sn)), an * sd // (a_max.denominator * sn)


def wall_scan(obj: DeclaredObject, step, a_max, b_max) -> list:
    """Row-major verdict grid over the open positive quadrant.

    Scaled by den(step) * den(b_max), a = i*step and b = b_max - j*step
    are the integers i*u and top - j*u, so a cell costs a few integer
    multiply-adds per quotient.
    """
    # read once: grid_shape takes the ints and Fractions back as they are
    step, a_max, b_max = _rational(step), _rational(a_max), _rational(b_max)
    _, n_cols = grid_shape(step, a_max, b_max)
    if n_cols and obj.charge.is_zero():
        raise DomainError("zero charge has no stability verdict")
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
