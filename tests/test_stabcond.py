import math
from collections import Counter
from fractions import Fraction

import pytest

from hnlab import autoeq, lifts, serialize, stabcond
from hnlab.charges import Charge, DomainError, Phase, normalize_direction
from hnlab.lifts import IDENTITY, Lift, compose, from_matrix, invert
from hnlab.stabcond import (
    StabilityCondition,
    act,
    act_autoeq,
    canonical_form,
    central_charge_of,
    slicing_phase,
    solve_transitivity,
)
from conftest import (
    c_add,
    c_div,
    cc,
    fraction_canonical_form,
    fraction_central_charge,
    fraction_inverse,
    fraction_product,
    gram_of,
    in_lowest_terms,
    letter_word_matrix,
    letter_word_phase,
    random_charge,
    random_word,
    rebuild_checked,
    reference_canonical_form,
    reference_compose,
    twist_power_word,
)


def random_gl(rng, span=5):
    while True:
        rows = [
            [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(2)]
            for _ in range(2)
        ]
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] > 0:
            return from_matrix(rows, winding=rng.randint(-2, 2))


def random_condition(rng):
    return StabilityCondition(random_gl(rng))


class TestGroup:
    def test_identity_laws(self, rng):
        e = IDENTITY
        for _ in range(30):
            g = random_gl(rng)
            assert compose(g, e) == g
            assert compose(e, g) == g
            assert compose(g, invert(g)) == e

    def test_associative(self, rng):
        for _ in range(50):
            g, h, k = random_gl(rng), random_gl(rng), random_gl(rng)
            assert compose(compose(g, h), k) == compose(g, compose(h, k))

    def test_compose_matches_reference(self, rng):
        # rational conditions (den > 1 or det != 1) are divided to lowest
        # terms, also beside a twist-group factor on one side alone
        def integral(rng):
            while True:
                m = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
                if lifts.mat_det(m) > 1:
                    return from_matrix(m, winding=rng.randint(-2, 2))

        for _ in range(300):
            sl2 = autoeq.normal_form(random_word(rng))
            g, h = rng.choice((random_gl, integral))(rng), random_gl(rng)
            for x, y in ((g, h), (h, g), (g, sl2), (sl2, g), (sl2, h)):
                assert compose(x, y) == reference_compose(x, y)
                assert in_lowest_terms(compose(x, y))

    def test_rejects_bad_matrices(self):
        with pytest.raises(DomainError):
            from_matrix([[1, 0], [0, -1]])
        with pytest.raises(DomainError):
            Lift(IDENTITY.matrix, Phase((-1, 0), 0))

    def test_autoeq_embedding_is_a_homomorphism(self, rng):
        # composing words' elements multiplies their (x, y) matrices, and the
        # (rk, -deg) JSON matrices of the codec multiply the same way
        def kmatrix(g):
            return tuple(map(tuple, serialize.encode_autoeq(g)["matrix"]))

        for _ in range(100):
            g = autoeq.normal_form(random_word(rng))
            h = autoeq.normal_form(random_word(rng))
            assert compose(g, h).ray == lifts.mat_mul(g.ray, h.ray)
            assert kmatrix(compose(g, h)) == lifts.mat_mul(kmatrix(g), kmatrix(h))


class TestCentralCharge:
    def test_standard_values(self):
        std = StabilityCondition.standard()
        assert central_charge_of(std, Charge(1, 0)) == cc(0, 1)
        assert central_charge_of(std, Charge(0, 1)) == cc(-1)

    def test_uniform_rescaling(self):
        half = StabilityCondition(from_matrix([[2, 0], [0, 2]]))
        assert central_charge_of(half, Charge(1, 0)) == cc(0, Fraction(1, 2))

    def test_additive(self, rng):
        for _ in range(100):
            cond = random_condition(rng)
            a, b = random_charge(rng), random_charge(rng)
            za = central_charge_of(cond, a)
            zb = central_charge_of(cond, b)
            assert central_charge_of(cond, a + b) == c_add(za, zb)


class TestSlicing:
    def test_standard_is_identity(self):
        std = StabilityCondition.standard()
        assert slicing_phase(std, Fraction(1, 2)) == Phase((0, 1), 0)
        assert slicing_phase(std, 1) == Phase((-1, 0), 0)

    def test_translation_rule(self, rng):
        for _ in range(60):
            cond = random_condition(rng)
            t = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 4])) - rng.randint(0, 3)
            try:
                p = slicing_phase(cond, t)
            except DomainError:
                continue
            assert slicing_phase(cond, t + 1) == p + 1

    def test_monotone(self, rng):
        values = sorted(
            Fraction(n, 4) for n in range(-8, 9) if Fraction(n, 4) != 0
        )
        values = [v for v in values if (4 * v) % 4 in (0, 1, 2, 3)]
        usable = [v for v in values if v.denominator in (1, 2, 4)]
        for _ in range(40):
            cond = random_condition(rng)
            images = [slicing_phase(cond, v) for v in usable]
            for a, b in zip(images, images[1:]):
                assert a < b


class TestAction:
    def test_solve_round_trip(self, rng):
        for _ in range(200):
            c1 = random_condition(rng)
            g = random_gl(rng)
            c2 = act(g, c1)
            assert solve_transitivity(c1, c2) == g
            assert act(solve_transitivity(c1, c2), c1) == c2

    def test_autoeq_action_composes(self, rng):
        for _ in range(60):
            cond = random_condition(rng)
            g = autoeq.normal_form(random_word(rng))
            h = autoeq.normal_form(random_word(rng))
            lhs = act_autoeq(autoeq.compose(g, h), cond)
            rhs = act_autoeq(h, act_autoeq(g, cond))
            assert lhs == rhs


def _float_reduce(tau: complex) -> complex:
    for _ in range(200):
        import math

        n = math.floor(tau.real + 0.5)
        tau -= n
        if abs(tau) < 1:
            tau = -1 / tau
        else:
            return tau
    raise AssertionError("float reduction did not terminate")


class TestCanonicalForm:
    def test_standard(self):
        tau, scale, b = canonical_form(StabilityCondition.standard())
        assert tau == cc(0, 1)
        assert scale == cc(1)
        assert b in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))

    def test_invariant_under_autoeq(self, rng):
        for _ in range(20):
            cond = random_condition(rng)
            base = canonical_form(cond)
            for _ in range(5):
                g = autoeq.normal_form(random_word(rng))
                moved = act_autoeq(g, cond)
                assert canonical_form(moved)[:2] == base[:2]

    def test_reducer_connects_conditions(self, rng):
        # the canonical data reconstruct the condition up to integer base
        # change: equal canonical pairs force an integral det-1 connector
        for _ in range(100):
            c1 = random_condition(rng)
            g = autoeq.normal_form(random_word(rng))
            c2 = act_autoeq(g, c1)
            m = fraction_product(c2.translate.matrix, fraction_inverse(c1.translate.matrix))
            assert lifts.mat_det(m) == 1
            for row in m:
                for e in row:
                    assert Fraction(e).denominator == 1

    def test_matches_float_oracle(self, rng):
        for _ in range(150):
            cond = random_condition(rng)
            w1 = central_charge_of(cond, Charge(0, 1))
            w2 = central_charge_of(cond, Charge(1, 0))
            tau = complex(float(w1[0]), float(w1[1])) / complex(
                float(w2[0]), float(w2[1])
            )
            if tau.imag <= 0:
                continue
            expect = _float_reduce(tau)
            got, _, _ = canonical_form(cond)
            # skip near-boundary ties where the float walk may disagree
            if abs(abs(expect) - 1) < 1e-9 or abs(abs(expect.real) - 0.5) < 1e-9:
                continue
            assert float(got[0]) == pytest.approx(expect.real, abs=1e-9)
            assert float(got[1]) == pytest.approx(expect.imag, abs=1e-9)

    def test_fundamental_domain_shape(self, rng):
        for _ in range(150):
            cond = random_condition(rng)
            tau, scale, _ = canonical_form(cond)
            assert Fraction(-1, 2) < tau[0] <= Fraction(1, 2)
            n2 = tau[0] * tau[0] + tau[1] * tau[1]
            assert n2 > 1 or (n2 == 1 and tau[0] >= 0)
            assert scale[0] > 0 or (scale[0] == 0 and scale[1] > 0)

    def test_distinct_generic_conditions_differ(self):
        c1 = StabilityCondition(from_matrix([[1, 0], [0, 1]]))
        c2 = StabilityCondition(
            from_matrix([[1, Fraction(1, 3)], [0, Fraction(5, 7)]])
        )
        assert canonical_form(c1)[:2] != canonical_form(c2)[:2]


class TestLargeElements:
    @staticmethod
    def _condition(word, lam):
        plane = letter_word_matrix(word)
        mat = tuple(tuple(lam * e for e in row) for row in plane)
        anchor = letter_word_phase(word, autoeq.PHASE_HALF)
        return StabilityCondition(Lift(mat, anchor))

    def test_solve_transitivity_512_bits(self, rng):
        for _ in range(4):
            w1, w2 = twist_power_word(rng, 512), twist_power_word(rng, 512)
            c1 = self._condition(w1, Fraction(3, 7))
            c2 = self._condition(w2, Fraction(5, 2))
            g = solve_transitivity(c1, c2)
            path = autoeq.invert_word(w1) + w2
            want = letter_word_matrix(path)
            ratio = Fraction(5, 2) / Fraction(3, 7)
            assert g.matrix == tuple(tuple(ratio * e for e in row) for row in want)
            assert g.anchor == letter_word_phase(path, autoeq.PHASE_HALF)
            assert act(g, c1) == c2


def rational_gl(rng, bits):
    """An element with entries of up to `bits` bits over denominators that
    are small or of up to `bits` bits, so that products share factors with
    den or not, and with den > 1."""
    while True:
        rows = [[Fraction(rng.randrange(-2**bits, 2**bits),
                          rng.choice((rng.randint(2, 12), rng.randint(2, 2**bits))))
                 for _ in range(2)] for _ in range(2)]
        if rows[0][0] * rows[1][1] < rows[0][1] * rows[1][0]:
            rows.reverse()
        if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
            g = from_matrix(rows, rng.randint(-2, 2))
            if g.den > 1:
                return g


class TestIntegerLifts:
    """compose, invert, solve_transitivity and central_charge_of work on the
    integer ray over den; each agrees with the Fraction reference, returns
    lowest terms, and rebuilds equal through the checked constructor."""

    @pytest.mark.parametrize("bits", (8, 64, 512, 2048, 4096))
    def test_match_fraction_reference(self, rng, bits):
        for _ in range(4):
            g, h = rational_gl(rng, bits), rational_gl(rng, bits)
            gh, gi = compose(g, h), invert(g)
            s = solve_transitivity(StabilityCondition(g), StabilityCondition(h))
            assert gh.matrix == fraction_product(g.matrix, h.matrix)
            assert gi.matrix == fraction_inverse(g.matrix)
            assert s.matrix == fraction_product(h.matrix, fraction_inverse(g.matrix))
            assert act(s, StabilityCondition(g)) == StabilityCondition(h)
            assert compose(g, gi) == IDENTITY == compose(gi, g)
            p = Phase(normalize_direction((rng.randrange(-2**bits, 2**bits), 2**bits))[0], 1)
            assert lifts.lift_phase(gh, p) == lifts.lift_phase(g, lifts.lift_phase(h, p))
            c = random_charge(rng, 2**bits)
            cond = StabilityCondition(g)
            assert central_charge_of(cond, c) == fraction_central_charge(cond, c)
            for r in (g, gh, gi, s):
                assert in_lowest_terms(r)
                b = rebuild_checked(r)
                assert b == r and hash(b) == hash(r)


def _fraction_gauss_reduce(tau):
    """Gauss reduction stepped in Fractions: the reference for the
    fraction-free walk, with the same tie rules."""
    s_mat, t_mat = ((0, -1), (1, 0)), ((1, 1), (0, 1))
    b = ((1, 0), (0, 1))

    def norm2(z):
        return z[0] * z[0] + z[1] * z[1]

    while True:
        n = math.floor(tau[0] + Fraction(1, 2))
        if n:
            tau = (tau[0] - n, tau[1])
            b = lifts.mat_mul(((1, -n), (0, 1)), b)
        if norm2(tau) < 1:
            tau = c_div(cc(-1), tau)
            b = lifts.mat_mul(s_mat, b)
        else:
            break
    if norm2(tau) == 1 and tau[0] < 0:
        tau = c_div(cc(-1), tau)
        b = lifts.mat_mul(s_mat, b)
    if tau[0] == Fraction(-1, 2):
        tau = (tau[0] + 1, tau[1])
        b = lifts.mat_mul(t_mat, b)
    return tau, b


def _moebius(m, tau):
    (p, q), (r, s) = m
    num = (p * tau[0] + q, p * tau[1])
    den = (r * tau[0] + s, r * tau[1])
    return c_div(num, den)


class TestGaussReductionLarge:
    # points of the fundamental domain, boundary ties included
    BASES = [
        cc(0, 1),
        cc(Fraction(3, 5), Fraction(4, 5)),
        cc(Fraction(-3, 5), Fraction(4, 5)),
        cc(Fraction(-1, 2), 2),
        cc(Fraction(1, 2), Fraction(7, 3)),
        cc(Fraction(1, 7), Fraction(11, 5)),
    ]

    def test_matches_fraction_reference_at_256_bits(self, rng):
        for _ in range(40):
            m = letter_word_matrix(twist_power_word(rng, 256))
            tau = _moebius(m, rng.choice(self.BASES))
            got = stabcond._gauss_reduce(*gram_of(tau))
            assert got == _fraction_gauss_reduce(tau)
            assert _moebius(got[1], tau) == got[0]

    def test_unit_circle_ties_match_fraction_reference(self, rng):
        # |tau| = 1 with Re(tau) < 0 is reflected to Re(tau) > 0
        for base in (cc(Fraction(-5, 13), Fraction(12, 13)), cc(Fraction(-7, 25), Fraction(24, 25))):
            assert stabcond._gauss_reduce(*gram_of(base)) == _fraction_gauss_reduce(base)
            for _ in range(10):
                tau = _moebius(letter_word_matrix(twist_power_word(rng, 64)), base)
                got = stabcond._gauss_reduce(*gram_of(tau))
                assert got == _fraction_gauss_reduce(tau)
                assert got[0] == (-base[0], base[1])

    def test_matches_float_oracle_at_256_bits(self, rng):
        for _ in range(200):
            d1, d2 = rng.randrange(2**256, 2**257), rng.randrange(2**256, 2**257)
            tau = cc(Fraction(rng.randrange(-2**260, 2**260), d1),
                     Fraction(rng.randrange(2**250, 2**258), d2))
            expect = _float_reduce(complex(float(tau[0]), float(tau[1])))
            if abs(abs(expect) - 1) < 1e-9 or abs(abs(expect.real) - 0.5) < 1e-9:
                continue
            got, _ = stabcond._gauss_reduce(*gram_of(tau))
            assert float(got[0]) == pytest.approx(expect.real, abs=1e-9)
            assert float(got[1]) == pytest.approx(expect.imag, abs=1e-9)


def _condition_at(tau):
    """A condition whose period ratio w1/w2 is tau: w2 = i and w1 = tau*i."""
    re, im = tau
    return StabilityCondition(from_matrix([[1 / im, 0], [re / im, 1]]))


class TestIntegerCanonicalForm:
    def test_matches_fraction_reference_at_8_to_4096_bits(self, rng):
        for bits in (8, 64, 512, 2048, 4096):
            for _ in range(4):
                g = autoeq.normal_form(twist_power_word(rng, bits))
                lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                mat = tuple(tuple(lam * e for e in row) for row in g.matrix)
                cond = StabilityCondition(Lift(mat, g.anchor))
                assert canonical_form(cond) == fraction_canonical_form(cond)

    def test_ties_match_fraction_reference(self, rng):
        # |tau| = 1 and Re(tau) = -1/2 reached through random twist words
        for base in TestGaussReductionLarge.BASES:
            cond = _condition_at(base)
            w1 = central_charge_of(cond, Charge(0, 1))
            w2 = central_charge_of(cond, Charge(1, 0))
            assert c_div(w1, w2) == base
            want = _fraction_gauss_reduce(base)[0]
            for _ in range(5):
                g = autoeq.normal_form(twist_power_word(rng, 64))
                moved = act_autoeq(g, cond)
                got = canonical_form(moved)
                assert got == fraction_canonical_form(moved)
                assert got[0] == want


def _scaled(lam, g):
    return StabilityCondition(Lift(tuple(tuple(lam * e for e in row) for row in g.matrix), g.anchor))


# three conditions with period ratio i: the standard one, a multiple of it
# (det 9) and the square lattice spanned by 2 + i (det 5)
TAU_I_CONDITIONS = {
    "standard": (StabilityCondition.standard(), cc(1)),
    "three-sevenths": (StabilityCondition(from_matrix([[Fraction(3, 7), 0], [0, Fraction(3, 7)]])),
                       cc(Fraction(7, 3))),
    "square-det-5": (StabilityCondition(from_matrix([[2, -1], [1, 2]])),
                     cc(Fraction(1, 5), Fraction(2, 5))),
}


class TestTauI:
    @pytest.mark.parametrize("name", list(TAU_I_CONDITIONS))
    def test_orbit_has_one_canonical_pair(self, rng, name):
        # the quarter turn S fixes i, so (tau, scale) is one value on the
        # whole orbit only if the scale is pinned to x > 0, y >= 0
        cond, scale = TAU_I_CONDITIONS[name]
        assert canonical_form(cond)[:2] == (cc(0, 1), scale)
        for i in range(200):
            g = autoeq.normal_form(twist_power_word(rng, rng.choice((1, 8, 64, 256))))
            moved = act_autoeq(g, cond)
            got = canonical_form(moved)
            assert got[:2] == (cc(0, 1), scale)
            if i % 10 == 0:
                assert got == fraction_canonical_form(moved)

    def test_reducer_carries_the_periods_to_the_reduced_basis(self, rng):
        cond, scale = TAU_I_CONDITIONS["square-det-5"]
        for _ in range(20):
            moved = act_autoeq(autoeq.normal_form(twist_power_word(rng, 512)), cond)
            _, _, ((p, q), (r, s)) = canonical_form(moved)
            assert p * s - q * r == 1
            w1 = central_charge_of(moved, Charge(0, 1))
            w2 = central_charge_of(moved, Charge(1, 0))
            second = c_add((r * w1[0], r * w1[1]), (s * w2[0], s * w2[1]))
            first = c_add((p * w1[0], p * w1[1]), (q * w2[0], q * w2[1]))
            assert c_div(second, cc(0, 1)) == scale
            assert c_div(first, second) == cc(0, 1)


class TestCanonicalFormAgainstReference:
    """Skewed and nearly reduced period bases, small and large det, against
    the Fraction reference, which walks the periods themselves."""

    @pytest.mark.parametrize("bits", (8, 64, 512, 2048, 4096))
    def test_twist_orbits(self, rng, bits):
        for name, (cond, scale) in TAU_I_CONDITIONS.items():
            moved = act_autoeq(autoeq.normal_form(twist_power_word(rng, bits)), cond)
            got = canonical_form(moved)
            assert got == fraction_canonical_form(moved)
            assert got[:2] == (cc(0, 1), scale)
        for base in TestGaussReductionLarge.BASES:
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            cond = _scaled(lam, _condition_at(base).translate)
            moved = act_autoeq(autoeq.normal_form(twist_power_word(rng, bits)), cond)
            assert canonical_form(moved) == fraction_canonical_form(moved)

    @pytest.mark.parametrize("bits", (8, 64, 512, 2048))
    def test_generic_conditions(self, rng, bits):
        for _ in range(10):
            while True:
                rows = [[Fraction(rng.randrange(-2**bits, 2**bits), rng.randint(1, 2**bits))
                         for _ in range(2)] for _ in range(2)]
                if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] > 0:
                    break
            cond = StabilityCondition(from_matrix(rows))
            assert canonical_form(cond) == fraction_canonical_form(cond)

    def test_twist_images_of_generic_conditions(self, rng):
        # skewed bases with a moderate det, on lattices that are not a
        # multiple of Z^2
        for _ in range(20):
            cond = random_condition(rng)
            base = canonical_form(cond)
            moved = act_autoeq(autoeq.normal_form(twist_power_word(rng, 512)), cond)
            got = canonical_form(moved)
            assert got == fraction_canonical_form(moved)
            assert got[:2] == base[:2]

    def test_scaled_unimodular_conditions(self, rng):
        # p * M for M in SL(2,Z) has det p^2: the lattice p * Z^2, with det
        # from far below to far above the size of the entries
        for _ in range(400):
            m = autoeq.normal_form(twist_power_word(rng, rng.randint(1, 24)))
            cond = _scaled(rng.randint(2, 2**rng.randint(2, 24)), m)
            assert canonical_form(cond) == fraction_canonical_form(cond)


# rho = e^(pi i/3) has an irrational imaginary part, so no rational condition
# reaches that corner of the fundamental domain; these come near it on the
# unit circle (either sign of Re) and on the lines Re = +-1/2
RHO_CORNERS = [
    cc(Fraction(8, 17), Fraction(15, 17)),
    cc(Fraction(-95, 193), Fraction(168, 193)),
    cc(Fraction(1, 2), Fraction(13, 15)),
    cc(Fraction(-1, 2), Fraction(97, 112)),
    cc(Fraction(1, 2), Fraction(7, 8)),
]


def _same_canonical_form(cond):
    """canonical_form equals the Fraction-compared reference, entry types
    included (the reducer is ints, tau and scale are Fractions)."""
    got = canonical_form(cond)
    assert repr(got) == repr(reference_canonical_form(cond))
    return got


def _twist_image(rng, cond, bits):
    return act_autoeq(autoeq.normal_form(twist_power_word(rng, bits)), cond)


class TestCanonicalFormOnIntegers:
    @pytest.mark.parametrize("bits", (8, 64, 512, 2048))
    def test_twist_images(self, rng, bits):
        for _ in range(8):
            _same_canonical_form(_twist_image(rng, random_condition(rng), bits))

    def test_scaled_identity_orbits(self, rng):
        # lam * (identity or the det-5 square lattice) has tau = i, where the
        # quarter turn and the sign pin both act
        for i in range(200):
            lam = Fraction(rng.randint(1, 2**16), rng.randint(1, 2**16))
            base = ((1, 0), (0, 1)) if i % 2 else ((2, -1), (1, 2))
            cond = StabilityCondition(from_matrix([[lam * e for e in row] for row in base]))
            moved = _twist_image(rng, cond, rng.choice((1, 8, 64, 256)))
            assert _same_canonical_form(moved)[0] == cc(0, 1)

    def test_rho_corners(self, rng):
        for base in RHO_CORNERS:
            cond = _condition_at(base)
            reduced = cc(abs(base[0]), base[1])
            assert _same_canonical_form(cond)[0] == reduced
            for _ in range(20):
                moved = _twist_image(rng, cond, rng.choice((8, 64, 512)))
                assert _same_canonical_form(moved)[0] == reduced

    @pytest.mark.parametrize("bits", (8, 64, 512, 2048))
    def test_generic_conditions(self, rng, bits):
        for _ in range(10):
            _same_canonical_form(StabilityCondition(rational_gl(rng, bits)))

    def test_builds_four_fractions_and_compares_none(self, rng, fraction_calls):
        conds = [StabilityCondition.standard(), *(c for c, _ in TAU_I_CONDITIONS.values())]
        conds += [_condition_at(base) for base in RHO_CORNERS]
        conds += [_twist_image(rng, c, 64) for c in list(conds)]
        conds += [StabilityCondition(rational_gl(rng, bits)) for bits in (8, 512)]
        for cond in conds:
            fraction_calls.clear()
            canonical_form(cond)
            assert fraction_calls == Counter(new=4)
