"""Exact monotone lifts of orientation-preserving linear maps on phases.

A 2x2 rational matrix with positive determinant acts on rays of the plane,
hence on phases modulo full turns.  Together with one pinned value (the
image of phase 1/2, the "anchor") it determines a unique strictly
increasing lift on the real phase line.  The lift has a closed form: the
arc from phase 1/2 to a sector direction spans less than a quarter turn,
and an orientation-preserving map sends it to an arc of the same sense
spanning less than a half turn, so the lifted value is the image direction
placed in the anchor's strip or in one strip either side, decided by one
cross-product sign.  Rational matrices are first scaled by the positive lcm
of their denominators, which keeps every ray, so the evaluation is integer
arithmetic throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .charges import DomainError, Phase, cross, normalize_direction

Mat = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

_BASE_DIR = (0, 1)  # direction of phase 1/2


def mat(rows) -> Mat:
    (a, b), (c, d) = rows
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


def mat_apply(m: Mat, v):
    (a, b), (c, d) = m
    x, y = v
    return (a * x + b * y, c * x + d * y)


def mat_mul(m: Mat, n: Mat) -> Mat:
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_det(m: Mat) -> Fraction:
    (a, b), (c, d) = m
    return a * d - b * c


def mat_inv(m: Mat) -> Mat:
    """Exact inverse; the entries are Fractions even for an integer matrix."""
    (a, b), (c, d) = m
    det = Fraction(a * d - b * c)
    if det == 0:
        raise DomainError("matrix is singular")
    return ((d / det, -b / det), (-c / det, a / det))


def identity_mat() -> Mat:
    return mat([[1, 0], [0, 1]])


def _integral(m: Mat):
    """The integer matrix lcm(denominators) * m; it acts the same on rays."""
    (a, b), (c, d) = m
    den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    return tuple(tuple(e.numerator * (den // e.denominator) for e in row) for row in m)


def lift_on_direction(m: Mat, anchor: Phase, target: tuple[int, int]) -> Phase:
    """Value of the lift pinned by anchor at the sector direction `target`.

    A target left of 1/2 (x < 0) lifts into (anchor, anchor + 1), one right
    of it (x > 0) into (anchor - 1, anchor); the sign of the cross product
    of the anchor and image directions tells whether the image direction
    sits in the anchor's strip or in the neighbouring one.
    """
    n = _integral(m)
    if mat_det(n) <= 0:
        raise DomainError("lift requires positive determinant")
    if target == _BASE_DIR:
        return anchor
    img, _ = normalize_direction(mat_apply(n, target))
    c = cross(anchor.dir, img)
    if target[0] < 0:
        return Phase(img, anchor.shift + (0 if c > 0 else 1))
    return Phase(img, anchor.shift - (0 if c < 0 else 1))


def lift_phase(m: Mat, anchor: Phase, p: Phase) -> Phase:
    """Unique strictly increasing lift of the ray action of m sending 1/2 to anchor."""
    q = lift_on_direction(m, anchor, p.dir)
    return q + p.shift


def principal_anchor(m: Mat, winding: int = 0) -> Phase:
    """Anchor with value in (0, 2], plus an even extra winding.

    Lifts of the same ray action differ by full turns, so the free data is
    one even integer.
    """
    d, flipped = normalize_direction(mat_apply(m, _BASE_DIR))
    return Phase(d, (1 if flipped else 0) + 2 * winding)


def compose_anchor(m_outer: Mat, anchor_outer: Phase, anchor_inner: Phase) -> Phase:
    """Anchor of the composite lift f_outer o f_inner."""
    return lift_phase(m_outer, anchor_outer, anchor_inner)


def invert_anchor(m: Mat, anchor: Phase) -> Phase:
    """Anchor of the inverse lift: the unique p with f(p) = 1/2."""
    (a, b), _ = m
    # the adjugate, a positive multiple of the inverse, sends (0, 1) to (-b, a)
    d, _ = normalize_direction((-b, a))
    probe = Phase(d, 0)
    image = lift_phase(m, anchor, probe)
    if image.dir != _BASE_DIR:
        raise DomainError("inconsistent lift data")
    return Phase(d, -image.shift)
