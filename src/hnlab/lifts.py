"""Exact monotone lifts of orientation-preserving linear maps on phases.

A 2x2 rational matrix with positive determinant acts on rays of the plane,
hence on phases modulo full turns.  Together with one pinned value (the
image of phase 1/2, the "anchor") it determines a unique strictly
increasing lift on the real phase line.  The lift has a closed form: the
arc from phase 1/2 to a sector direction spans less than a quarter turn,
and an orientation-preserving map sends it to an arc of the same sense
spanning less than a half turn, so the lifted value is the image direction
placed in the anchor's strip or in one strip either side, decided by one
cross-product sign.  A map is stored as an integer matrix `ray` over a
positive integer `den` in lowest terms; `ray` moves every ray as the map
does, so every evaluation, product and inverse is integer arithmetic.

`Lift(matrix, anchor)` is the one group element type, an element of the
universal cover of GL+(2,R) with a rational matrix on (x, y) = (-deg, rk).
It has two uses: the twist group of `autoeq` is its subgroup of integer
matrices of determinant 1, and `stabcond` records a stability condition as
the element that carries the standard condition to it.  Every plane matrix
in hnlab is on (x, y); `swap_axes` and `Lift.kmatrix` give the same map on
(rk, -deg), which is only the JSON `matrix` convention of an
auto-equivalence.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .charges import DomainError, Phase, Value, cross, normalize_direction

Mat = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

_BASE_DIR = (0, 1)  # direction of phase 1/2


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


def _integral(m):
    """(ray, den) with m = ray/den in lowest terms, for a rational matrix m of
    positive determinant: den is the lcm of the denominators."""
    (a, b), (c, d) = ((Fraction(e) for e in row) for row in m)
    den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    a, b, c, d = (e.numerator * (den // e.denominator) for e in (a, b, c, d))
    if a * d - b * c <= 0:
        raise DomainError("matrix must have positive determinant")
    return ((a, b), (c, d)), den


def swap_axes(m: Mat) -> Mat:
    """The same map with the two coordinates exchanged, (rk, -deg) to
    (x, y) = (-deg, rk) or back: ((a, b), (c, d)) -> ((d, c), (b, a))."""
    (a, b), (c, d) = m
    return ((d, c), (b, a))


class Lift(Value):
    """Orientation-preserving plane map ray/den on (x, y) plus the exact image of
    phase 1/2.  The constructor checks a rational matrix and stores it in lowest
    terms, so one map has one (ray, den), and equality and hashing compare maps."""

    __slots__ = ("ray", "den", "anchor")
    def __init__(self, matrix: Mat, anchor: Phase):
        ray, den = _integral(matrix)
        d, _ = normalize_direction(mat_apply(ray, _BASE_DIR))
        if d != anchor.dir:
            raise DomainError("anchor direction does not match the matrix")
        self._store(ray, den, anchor)

    @property
    def matrix(self) -> Mat:
        """The map ray/den: `ray` itself at den 1, Fractions otherwise."""
        if self.den == 1:
            return self.ray
        return tuple(tuple(Fraction(e, self.den) for e in row) for row in self.ray)

    # bench/ reads kmatrix; the benchmark change of ROADMAP item 2 frees it for deletion
    @property
    def kmatrix(self) -> Mat:
        """The same map on (rk, -deg) coordinates, the JSON `matrix` convention."""
        return swap_axes(self.matrix)


def _lowest(ray, den: int, anchor: Phase) -> Lift:
    """ray/den in lowest terms, built unchecked: each caller keeps det(ray) and
    den positive and passes the image of phase 1/2 as the anchor."""
    k = math.gcd(den, *ray[0], *ray[1])
    if k > 1:
        ray, den = tuple(tuple(e // k for e in row) for row in ray), den // k
    return Lift._make(ray, den, anchor)


IDENTITY = Lift(((1, 0), (0, 1)), Phase(_BASE_DIR, 0))


def from_matrix(rows, winding: int = 0) -> Lift:
    """Element with the anchor valued in (0, 2], plus an even extra winding.

    Lifts of the same ray action differ by full turns, so the free data is
    one even integer.
    """
    ray, den = _integral(rows)
    d, flipped = normalize_direction(mat_apply(ray, _BASE_DIR))
    # the anchor is read off the checked ray, so it matches it
    return Lift._make(ray, den, Phase._make(d, (1 if flipped else 0) + 2 * winding))


def lift_phase(g: Lift, p: Phase) -> Phase:
    """The strictly increasing lift of g's ray action, evaluated at p.

    A direction left of 1/2 (x < 0) lifts into (anchor, anchor + 1), one
    right of it (x > 0) into (anchor - 1, anchor); the sign of the cross
    product of the anchor and image directions tells whether the image
    direction sits in the anchor's strip or in the neighbouring one.
    """
    target, anchor = p.dir, g.anchor
    if target == _BASE_DIR:
        return anchor + p.shift
    img, _ = normalize_direction(mat_apply(g.ray, target))
    c = cross(anchor.dir, img)
    if target[0] < 0:
        return Phase._make(img, anchor.shift + p.shift + (0 if c > 0 else 1))
    return Phase._make(img, anchor.shift + p.shift - (0 if c < 0 else 1))


def compose(g: Lift, h: Lift) -> Lift:
    """g after h."""
    # det is a product of positive ones, and g lifts h's image of 1/2
    return _lowest(mat_mul(g.ray, h.ray), g.den * h.den, lift_phase(g, h.anchor))


def invert(g: Lift) -> Lift:
    """The inverse element; its anchor is the unique p with g(p) = 1/2."""
    ((a, b), (c, d)), n = g.ray, g.den
    # the adjugate, a positive multiple of the inverse, sends (0, 1) to (-b, a);
    # g sends (-b, a) to (0, det), the direction of 1/2, so only the strip is unknown
    u, _ = normalize_direction((-b, a))
    image = lift_phase(g, Phase._make(u, 0))
    # den*adj(ray)/det(ray) is the inverse map, of determinant den^2/det(ray) > 0
    return _lowest(((n * d, -n * b), (-n * c, n * a)), a * d - b * c, Phase._make(u, -image.shift))
