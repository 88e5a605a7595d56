"""Stability conditions as orbit translates of the standard one.

A stability condition is recorded as the `lifts.Lift` (rational plane
matrix with positive determinant, plus the pinned image of phase 1/2)
that carries the standard condition to it; the twist group acts through
the same type.  The charge side acts by the inverse matrix on central
charges; the slicing side acts by the exact monotone lift.  Canonical
forms modulo integer base change use Gauss reduction of the period
ratio, carried out fraction-free in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import lifts
from .charges import Charge, DomainError, Phase, Value, _set

# Rational complex numbers as (re, im) pairs.
CC = tuple[Fraction, Fraction]


def cc(re, im=0) -> CC:
    return (Fraction(re), Fraction(im))


def c_add(a: CC, b: CC) -> CC:
    return (a[0] + b[0], a[1] + b[1])


def c_neg(a: CC) -> CC:
    return (-a[0], -a[1])


def c_scale(n, a: CC) -> CC:
    return (n * a[0], n * a[1])


def c_div(a: CC, b: CC) -> CC:
    n = b[0] * b[0] + b[1] * b[1]
    if n == 0:
        raise DomainError("division by zero complex number")
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


# Bridgeland's name for the group that moves stability conditions.
GLPlusTilde = lifts.Lift


class StabilityCondition(Value):
    __slots__ = ("translate",)
    def __init__(self, translate: lifts.Lift):
        _set(self, "translate", translate)

    @staticmethod
    def standard() -> "StabilityCondition":
        return StabilityCondition(lifts.IDENTITY)


def central_charge_of(cond: StabilityCondition, c: Charge) -> CC:
    """Central charge: the inverse translate matrix applied to (-deg, rk)."""
    inv = lifts.mat_inv(cond.translate.matrix)
    x, y = lifts.mat_apply(inv, (-c.deg, c.rk))
    return (Fraction(x), Fraction(y))


def slicing_phase(cond: StabilityCondition, t) -> Phase:
    """The slicing reparametrization evaluated at an exactly representable t."""
    p = t if isinstance(t, Phase) else Phase.from_value(Fraction(t))
    return lifts.lift_phase(cond.translate, p)


def act(g: lifts.Lift, cond: StabilityCondition) -> StabilityCondition:
    return StabilityCondition(lifts.compose(g, cond.translate))


def solve_transitivity(
    c1: StabilityCondition, c2: StabilityCondition
) -> lifts.Lift:
    """The unique group element carrying c1 to c2."""
    return lifts.compose(c2.translate, lifts.invert(c1.translate))


def act_autoeq(g: lifts.Lift, cond: StabilityCondition) -> StabilityCondition:
    """Auto-equivalence action: precompose the central charge with the charge
    action of g (convention: the integer matrix joins on the K-group side)."""
    return act(lifts.invert(g), cond)


def _gauss_reduce(tau: CC):
    """Reduce an upper-half-plane point into the standard fundamental domain.

    Returns (reduced tau, integer matrix B) with reduced = B acting on tau.
    Ties: |tau| = 1 resolved to Re >= 0, Re = -1/2 resolved to +1/2.
    Fraction-free: write tau = u/v with u = L*tau and v = L for L the lcm of
    the denominators, and carry only the integers a = |u|^2, b = <u, v> and
    c = |v|^2.  Translating by n (u -> u - n*v) and inverting (u, v) ->
    (-v, u) update them by small multiples, Re(tau) = b/c and |tau|^2 = a/c
    decide every step, and Im(u * conj(v)) = L^2 * Im(tau) never changes.
    B = ((p, q), (r, s)) is kept as four ints and takes the same steps as
    row operations: row 0 -= n * row 1, and (row 0, row 1) -> (-row 1, row 0).
    """
    if tau[1] <= 0:
        raise DomainError("period ratio must lie in the upper half-plane")
    re, im = tau
    den = math.lcm(re.denominator, im.denominator)
    x, y = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
    a, b, c = x * x + y * y, x * den, den * den
    p, q, r, s = 1, 0, 0, 1
    while True:
        n, t = divmod(b, c)  # rounded up below: n = floor(Re(tau) + 1/2), t = b - n*c
        if t + t >= c:
            n, t = n + 1, t - c
        if n:
            a, b = a - n * (b + t), t
            p, q = p - n * r, q - n * s
        if a < c:
            a, b, c = c, -b, a
            p, q, r, s = -r, -s, p, q
        else:
            break
    if a == c and b < 0:
        b = -b
        p, q, r, s = -r, -s, p, q
    if 2 * b == -c:
        b += c
        p, q = p + r, q + s
    return (Fraction(b, c), Fraction(y * den, c)), ((p, q), (r, s))


def canonical_form(cond: StabilityCondition):
    """Complete coset invariant: (reduced period ratio, scale, reducer).

    The periods are the central charges of the torsion generator and of the
    rank-one degree-zero generator; their ratio is Gauss-reduced and the
    second reduced period is reported relative to i, sign-normalized.
    """
    w1 = central_charge_of(cond, Charge(0, 1))
    w2 = central_charge_of(cond, Charge(1, 0))
    tau = c_div(w1, w2)
    tau_red, b = _gauss_reduce(tau)
    (p, q), (r, s) = b
    w2_red = c_add(c_scale(r, w1), c_scale(s, w2))
    scale = c_div(w2_red, cc(0, 1))
    if scale[0] < 0 or (scale[0] == 0 and scale[1] < 0):
        b = tuple(tuple(-e for e in row) for row in b)
        scale = c_neg(scale)
    return tau_red, scale, b
