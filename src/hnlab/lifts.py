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
A matrix taken or returned is a tuple of two row tuples of ints or
Fractions.

`Lift(matrix, anchor)` is the one group element type, an element of the
universal cover of GL+(2,R) with a rational matrix on (x, y) = (-deg, rk).
It has two uses: the twist group of `autoeq` is its subgroup of integer
matrices of determinant 1, and `stabcond` records a stability condition as
the element that carries the standard condition to it.  Every product is
`sl2_product` on raw integers: its anchor is the right factor's anchor
moved by the left factor, and its strip is one cross-product sign, which
a positive determinant reduces to sector signs.  `compose` and `invert`
take that one rule for every element, and `autoeq.normal_form` multiplies
its leaves by it; as a matrix of determinant 1 keeps a direction
primitive, only off SL(2,Z) is a result divided to lowest terms.  Every
plane matrix in hnlab is on (x, y); `swap_axes` and `Lift.kmatrix` give
the same map on (rk, -deg), which is only the JSON `matrix` convention of
an auto-equivalence.
"""

import math

from .charges import DomainError, Phase, Value, _fraction, _rational, cross, normalize_direction

_BASE_DIR = (0, 1)  # direction of phase 1/2


def mat_apply(m: tuple, v):
    (a, b), (c, d) = m
    x, y = v
    return (a * x + b * y, c * x + d * y)


def mat_mul(m: tuple, n: tuple) -> tuple:
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_det(m: tuple):
    """The determinant, an int or a Fraction as the entries are."""
    (a, b), (c, d) = m
    return a * d - b * c


def _integral(m):
    """(ray, den) with m = ray/den in lowest terms, for a rational matrix m of
    positive determinant: den is the lcm of the denominators.  Each entry is
    read once by charges._rational, so an integer matrix stays on ints."""
    (a, b), (c, d) = ((_rational(e) for e in row) for row in m)
    den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    a, b, c, d = (e.numerator * (den // e.denominator) for e in (a, b, c, d))
    if a * d - b * c <= 0:
        raise DomainError("matrix must have positive determinant")
    return ((a, b), (c, d)), den


def swap_axes(m: tuple) -> tuple:
    """The same map with the two coordinates exchanged, (rk, -deg) to
    (x, y) = (-deg, rk) or back: ((a, b), (c, d)) -> ((d, c), (b, a))."""
    (a, b), (c, d) = m
    return ((d, c), (b, a))


class Lift(Value):
    """Orientation-preserving plane map ray/den on (x, y) plus the exact image of
    phase 1/2.  The constructor checks a rational matrix and stores it in lowest
    terms, so one map has one (ray, den), and equality and hashing compare maps."""

    __slots__ = ("ray", "den", "anchor")
    def __init__(self, matrix: tuple, anchor: Phase):
        ray, den = _integral(matrix)
        d, _ = normalize_direction(mat_apply(ray, _BASE_DIR))
        if d != anchor.dir:
            raise DomainError("anchor direction does not match the matrix")
        self._store(ray, den, anchor)

    @property
    def matrix(self) -> tuple:
        """The map ray/den: `ray` itself at den 1, Fractions otherwise."""
        if self.den == 1:
            return self.ray
        Fraction = _fraction()
        return tuple(tuple(Fraction(e, self.den) for e in row) for row in self.ray)

    # bench/ reads kmatrix; the benchmark change of ROADMAP item 4 frees it for deletion
    @property
    def kmatrix(self) -> tuple:
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
    if winding.__class__ is not int:
        raise DomainError("winding must be an integer")
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


def sl2_product(g, h):
    """g after h, for two elements given raw as (a, b, c, d, s): the integer
    matrix ((a, b), (c, d)) of positive determinant (`ray`) and the strip
    shift s of the anchor.  The anchor's direction is not stored: it is a
    positive multiple of the image (b, d) of (0, 1), the direction of phase
    1/2, negated if it leaves the sector.  The result is raw too.

    The product's matrix is the matrix product, and its anchor is g's lift
    of h's anchor v, as in `compose`.  The strip comes from lift_phase's
    cross product of g's anchor and g's image of v: each is a sign and a
    positive scale times g's image of a vector, and cross(g*u, g*w) =
    det(g)*cross(u, w) with det(g) > 0, so the cross product has the sign
    of the three sector signs times cross((0, 1), v) = -v_x.  When the
    signs multiply to -1, the image leaves g's anchor strip: one strip up
    if v_x < 0, one down if v_x > 0 (v = (0, 1) never moves).  So the strip
    takes sign tests only, and the product eight multiplications.  At
    determinant 1 the image of v is a sign times the product's (b, d),
    which is primitive, so a twist-group product needs no gcd.
    """
    a, b, c, d, s = g
    e, f, k, l, t = h
    p, q = a * f + b * l, c * f + d * l
    out_h = l < 0 or not l and f > 0
    if (d < 0 or not d and b > 0) ^ out_h ^ (q < 0 or not q and p > 0):
        t += 1 if (f > 0) == out_h else -1
    return a * e + b * k, p, c * e + d * k, q, s + t


def compose(g: Lift, h: Lift) -> Lift:
    """g after h: the product of the maps, and g's lift of h's anchor.

    Every pair multiplies by `sl2_product` on the integer rays.  In SL(2,Z)
    (den 1 and determinant 1) the product is returned as it is, with no
    gcd; off it, as for a rational stability condition, its anchor
    direction and ray/(den*den') are divided to lowest terms.
    """
    (a, b), (c, d) = g.ray
    (e, f), (k, l) = h.ray
    sl2 = g.den == h.den == 1 and a * d - b * c == e * l - f * k == 1
    a, b, c, d, s = sl2_product((a, b, c, d, g.anchor.shift), (e, f, k, l, h.anchor.shift))
    x, y = (-b, -d) if d < 0 or not d and b > 0 else (b, d)
    if sl2:  # (x, y) is primitive and the map in lowest terms
        return Lift._make(((a, b), (c, d)), 1, Phase._make((x, y), s))
    m = math.gcd(x, y)
    return _lowest(((a, b), (c, d)), g.den * h.den, Phase._make((x // m, y // m), s))


def invert(g: Lift) -> Lift:
    """The inverse element; its anchor is the unique p with g(p) = 1/2.

    The adjugate ((d, -b), (-c, a)) is a positive multiple of the inverse
    map, so the inverse's anchor direction is its image (-b, a) of (0, 1),
    negated if it leaves the sector, and its strip t is the one that makes
    sl2_product(g, adjugate) the identity at strip 0.  That product's image
    of the inverse's anchor is (0, 1) itself, so its strip is s + t, moved
    by one exactly when the sector signs of g's anchor and of the inverse's
    anchor differ: up when the inverse's anchor direction has x < 0, down
    when x > 0.  In SL(2,Z) the inverse is the adjugate, with no gcd; off
    it the anchor direction and den*adj(ray)/det(ray) go to lowest terms.
    """
    ((a, b), (c, d)), n = g.ray, g.den
    out = a < 0 or not a and b < 0  # (-b, a) leaves the sector
    x, y = u = (b, -a) if out else (-b, a)
    t = -g.anchor.shift
    if (d < 0 or not d and b > 0) ^ out:
        t -= 1 if x < 0 else -1
    det = a * d - b * c
    if n == 1 and det == 1:
        return Lift._make(((d, -b), (-c, a)), 1, Phase._make(u, t))
    m = math.gcd(x, y)
    # den*adj(ray)/det(ray) is the inverse map, of determinant den^2/det(ray) > 0
    return _lowest(((n * d, -n * b), (-n * c, n * a)), det, Phase._make((x // m, y // m), t))
