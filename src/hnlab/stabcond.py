"""Stability conditions as orbit translates of the standard one.

A stability condition is recorded as the `lifts.Lift` (rational plane
matrix ray/den with positive determinant, plus the pinned image of phase 1/2)
that carries the standard condition to it; the twist group acts through
the same type.  The charge side acts by the inverse matrix on central
charges; the slicing side acts by the exact monotone lift.  Canonical
forms modulo integer base change come from an integer Gauss reduction of
the period basis: the two periods are one positive rational times integer
plane vectors read off the translate's integer matrix `ray`, and the reduction
runs on an integer Gram matrix.  The period lattice contains det*Z^2, so
the reduction walks the lattice's Hermite basis, read off the periods
modulo det, on integers the size of det however long the periods are (a
twist image of a fixed condition); the reducer of the periods follows by
one exact division.  At tau = i, read off the reduced Gram as b = 0 and
im = c, the quarter turn fixes the reduced ratio, and the scale is pinned
to the quadrant x > 0, y >= 0, so the canonical triple is unique.  Every
decision is made on integers; the only Fractions built are returned ones,
through `charges._fraction`, so importing this module does not load
fractions (nor the decimal module it imports): the first result does.
"""

from . import lifts
from .charges import Charge, Phase, Value, _ext_gcd, _fraction

# bench/ reads GLPlusTilde; the benchmark change of ROADMAP item 4 frees it for deletion
GLPlusTilde = lifts.Lift


class StabilityCondition(Value):
    __slots__ = ("translate",)

    @staticmethod
    def standard() -> "StabilityCondition":
        return StabilityCondition(lifts.IDENTITY)


def central_charge_of(cond: StabilityCondition, c: Charge) -> tuple:
    """Central charge as two Fractions: the inverse translate
    den*adj(ray)/det(ray) on (-deg, rk)."""
    g = cond.translate
    (p, q), (r, s) = g.ray
    det, x, y = p * s - q * r, -c.deg, c.rk
    Fraction = _fraction()
    return (Fraction(g.den * (s * x - q * y), det), Fraction(g.den * (p * y - r * x), det))


def slicing_phase(cond: StabilityCondition, t) -> Phase:
    """The slicing reparametrization evaluated at an exactly representable
    rational t (a Fraction or an int); for a Phase p it is
    lifts.lift_phase(cond.translate, p)."""
    return lifts.lift_phase(cond.translate, Phase.from_value(t))


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
    a = |u|^2, b = <u, v>, c = |v|^2 and orientation im = Im(u * conj(v)),
    which is positive: canonical_form passes det R.

    The ratio tau = u/v has Re(tau) = b/c and |tau|^2 = a/c, so the Gram
    decides every step; a positive multiple of it takes the same steps.
    Returns (reduced tau, integer matrix B) with reduced = B acting on tau.
    Ties: |tau| = 1 resolved to Re >= 0, Re = -1/2 resolved to +1/2.
    Translating by n (u -> u - n*v) and inverting (u, v) -> (-v, u) update
    the Gram by small multiples and keep im.  B = ((p, q), (r, s)) is kept
    as four ints and takes the same steps as row operations: row 0 -= n *
    row 1, and (row 0, row 1) -> (-row 1, row 0).
    """
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
    Fraction = _fraction()
    return (Fraction(b, c), Fraction(im, c)), ((p, q), (r, s))


def _hermite_basis(u, v, det: int):
    """(g, e, h): the basis w1 = (g, e), w2 = (0, -h) of the lattice spanned
    by the integer vectors u and v, for det = Im(u * conj(v)) > 0.

    The lattice has index det, so it contains det*Z^2 and is spanned by u and
    v modulo det together with (det, 0) and (0, det): the extended gcds run
    on integers below det.  Two are needed, because the gcd of the reduced
    first coordinates can be a proper multiple of g, or 0 when det divides
    both.  Then g*h = det, 0 <= e < h, and Im(w1 * conj(w2)) = g*h = det.
    """
    ux, uy, vx, vy = u[0] % det, u[1] % det, v[0] % det, v[1] % det
    g, s, t = _ext_gcd(ux, vx)  # s*u + t*v = (g, s*uy + t*vy) mod det
    g, s2, _ = _ext_gcd(g, det)  # plus a multiple of (det, 0)
    h = det // g
    return g, s2 * (s * uy + t * vy) % h, h


def canonical_form(cond: StabilityCondition):
    """Complete coset invariant: (reduced period ratio, scale, reducer).

    The periods are the central charges w1 of the torsion generator and w2
    of the rank-one degree-zero generator.  With R = ((a, b), (c, d)) the
    translate's integer matrix `ray`, k times its matrix for k its `den`,
    they are lam*u and lam*v for u = (-d, c), v = (-b, a) and
    lam = k/det R > 0, and Im(u * conj(v)) = det R.  The reduced basis
    is (p*u + q*v, r*u + s*v) for the reducer ((p, q), (r, s)) in SL(2,Z);
    the second reduced period, r*w1 + s*w2, is reported relative to i as
    the scale.

    The period lattice has index det R, and the Gauss walk runs on its
    Hermite basis w1 = (g, e), w2 = (0, -det/g) (`_hermite_basis`), on
    integers the size of det, not on (u, v).  On the twist orbits det stays
    fixed while the entries of R grow, so the walk does too.  The reducer
    comes back by one exact division: the reduced basis, as the rows of W',
    is B times the rows u, v, so B = W' * ((-a, c), (-b, d)) / det.

    The reduced ratio is unique, so the reduced basis is unique up to the
    stabilizer of the ratio: +-1, and at tau = i also the quarter turn S,
    which maps the reduced basis (w, w') to (-w', w) and so multiplies the
    scale by i.
    The scale is normalized to x > 0 or (x = 0, y > 0), and at tau = i to
    x > 0, y >= 0.  So the triple is unique.
    """
    (a, b), (c, d) = cond.translate.ray
    det = a * d - b * c
    g, e, h = _hermite_basis((-d, c), (-b, a), det)
    tau_red, ((p, q), (r, s)) = _gauss_reduce(g * g + e * e, -e * h, h * h, det)
    (x1, y1), (x2, y2) = (p * g, p * e - q * h), (r * g, r * e - s * h)
    p, q = (-x1 * a - y1 * b) // det, (x1 * c + y1 * d) // det
    r, s = (-x2 * a - y2 * b) // det, (x2 * c + y2 * d) // det
    x, y = y2, -x2  # the second reduced vector over i
    re, im = tau_red  # Fraction(b, c) and Fraction(im, c) of the reduced Gram
    if re.numerator == 0 and im.numerator == im.denominator and (x <= 0 < y or y < 0 <= x):
        p, q, r, s, x, y = -r, -s, p, q, -y, x  # tau = i: the quarter turn
    if x < 0 or (x == 0 and y < 0):
        p, q, r, s, x, y = -p, -q, -r, -s, -x, -y
    k = cond.translate.den
    Fraction = _fraction()
    return tau_red, (Fraction(k * x, det), Fraction(k * y, det)), ((p, q), (r, s))
