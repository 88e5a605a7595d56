"""Stability conditions as orbit translates of the standard one.

A stability condition is recorded as the `lifts.Lift` (rational plane
matrix with positive determinant, plus the pinned image of phase 1/2)
that carries the standard condition to it; the twist group acts through
the same type.  The charge side acts by the inverse matrix on central
charges; the slicing side acts by the exact monotone lift.  Canonical
forms modulo integer base change come from an integer Gauss reduction of
the period basis: the two periods are one positive rational times integer
plane vectors read off the translate's integer matrix, and the reduction
runs on those vectors' integer Gram matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import lifts
from .charges import Charge, DomainError, Phase, Value, _set

# Bridgeland's name for the group that moves stability conditions.
GLPlusTilde = lifts.Lift


class StabilityCondition(Value):
    __slots__ = ("translate",)
    def __init__(self, translate: lifts.Lift):
        _set(self, "translate", translate)

    @staticmethod
    def standard() -> "StabilityCondition":
        return StabilityCondition(lifts.IDENTITY)


def central_charge_of(cond: StabilityCondition, c: Charge) -> tuple[Fraction, Fraction]:
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


def _gauss_reduce(a: int, b: int, c: int, im: int):
    """Gauss-reduce a plane basis (u, v), given by its integer Gram matrix
    a = |u|^2, b = <u, v>, c = |v|^2 and orientation im = Im(u * conj(v)).

    The ratio tau = u/v has Re(tau) = b/c and |tau|^2 = a/c, so the Gram
    decides every step; a positive multiple of it takes the same steps.
    Returns (reduced tau, integer matrix B) with reduced = B acting on tau.
    Ties: |tau| = 1 resolved to Re >= 0, Re = -1/2 resolved to +1/2.
    Translating by n (u -> u - n*v) and inverting (u, v) -> (-v, u) update
    the Gram by small multiples and keep im.  B = ((p, q), (r, s)) is kept
    as four ints and takes the same steps as row operations: row 0 -= n *
    row 1, and (row 0, row 1) -> (-row 1, row 0).
    """
    if im <= 0:
        raise DomainError("period ratio must lie in the upper half-plane")
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
    return (Fraction(b, c), Fraction(im, c)), ((p, q), (r, s))


def canonical_form(cond: StabilityCondition):
    """Complete coset invariant: (reduced period ratio, scale, reducer).

    The periods are the central charges w1 of the torsion generator and w2
    of the rank-one degree-zero generator.  With R = ((a, b), (c, d)) the
    translate's integer matrix `ray`, k times its matrix for k the lcm of
    the denominators, they are lam*u and lam*v for u = (-d, c), v = (-b, a)
    and lam = k/det R > 0, and Im(u * conj(v)) = det R.  The basis (u, v)
    is Gauss-reduced; the second reduced period, r*w1 + s*w2, is reported
    relative to i, sign-normalized.
    """
    (a, b), (c, d) = cond.translate.ray
    det = a * d - b * c
    tau_red, m = _gauss_reduce(d * d + c * c, d * b + c * a, b * b + a * a, det)
    r, s = m[1]
    # (r*u + s*v) / i; the scale is lam times it
    x, y = r * c + s * a, r * d + s * b
    if x < 0 or (x == 0 and y < 0):
        m = tuple(tuple(-e for e in row) for row in m)
        x, y = -x, -y
    k = math.lcm(*(e.denominator for row in cond.translate.matrix for e in row))
    return tau_red, (Fraction(k * x, det), Fraction(k * y, det)), m
