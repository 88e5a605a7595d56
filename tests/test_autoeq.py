import itertools
import math
import random
from collections import deque
from fractions import Fraction

import pytest

from hnlab import autoeq, lifts
from hnlab.charges import Charge, DomainError, Phase, reduced_phase
from conftest import (
    LETTER_MATRICES,
    letter_word_matrix,
    letter_word_phase,
    letters,
    merge_runs,
    plane_charge,
    random_charge,
    random_phase,
    random_run_word,
    random_word,
    rebuild_checked,
    reference_reduce,
    run_power_matrix,
    run_power_phase,
    twist_power_word,
)

F_WORD = autoeq.FLIP_WORD


class TestGeneratorMatrices:
    """Each generator's (x, y) = (-deg, rk) matrix: T_O sends y to y + x,
    T_K sends x to x - y, the shift negates."""

    def test_twist_by_structure_sheaf(self):
        assert autoeq.normal_form(["TO"]).ray == LETTER_MATRICES["TO"] == ((1, 0), (1, 1))
        c = autoeq.apply_to_charge(["TO"], Charge(3, 5))
        assert c == Charge(3 - 5, 5)

    def test_twist_by_point(self):
        assert autoeq.normal_form(["TK"]).ray == LETTER_MATRICES["TK"] == ((1, -1), (0, 1))
        c = autoeq.apply_to_charge(["TK"], Charge(3, 5))
        assert c == Charge(3, 8)

    def test_quarter_turn_product(self):
        assert autoeq.normal_form(F_WORD).ray == letter_word_matrix(F_WORD) == ((0, -1), (1, 0))

    def test_shift_matrix(self):
        assert autoeq.normal_form(["S"]).ray == LETTER_MATRICES["S"] == ((-1, 0), (0, -1))

    def test_all_determinants_one(self):
        for letter in autoeq.LETTERS:
            m = autoeq.normal_form([letter]).ray
            assert m == LETTER_MATRICES[letter]
            assert lifts.mat_det(m) == 1
            for c in (Charge(3, 5), Charge(-2, 7), Charge(0, 1)):
                assert autoeq.apply_to_charge([letter], c) == plane_charge(m, c)

    def test_charge_action_needs_an_integral_element(self):
        g = lifts.from_matrix([["1/2", 0], [3, "5/3"]])
        assert g.den == 6
        with pytest.raises(DomainError, match="integral"):
            autoeq.apply_to_charge(g, Charge(2, 7))
        # the same map scaled to den 1 acts on integers
        h = lifts.from_matrix([[3, 0], [18, 10]])
        assert autoeq.apply_to_charge(h, Charge(2, 7)) == Charge(-106, 21)

    def test_quarter_turn_on_line_bundle(self):
        assert autoeq.apply_to_charge(F_WORD, Charge(1, 0)) == Charge(0, 1)

    def test_shift_negates(self, rng):
        for _ in range(50):
            c = random_charge(rng)
            assert autoeq.apply_to_charge(["S"], c) == -c

    def test_gcd_preserved(self, rng):
        for _ in range(200):
            c = random_charge(rng)
            w = random_word(rng)
            c2 = autoeq.apply_to_charge(w, c)
            assert math.gcd(abs(c.rk), abs(c.deg)) == math.gcd(abs(c2.rk), abs(c2.deg))


class TestPhaseRules:
    def test_quarter_turn_adds_half(self, rng):
        for _ in range(1000):
            p = random_phase(rng)
            q = autoeq.apply_to_phase(F_WORD, p)
            assert q.approx() == pytest.approx(p.approx() + 0.5)

    def test_half_on_structure_sheaf(self):
        assert autoeq.apply_to_phase(F_WORD, Phase((0, 1), 0)) == Phase((-1, 0), 0)

    def test_point_twist_fixes_torsion_phase(self):
        one = Phase((-1, 0), 0)
        assert autoeq.apply_to_phase(["TK"], one) == one
        assert autoeq.apply_to_phase(["tk"], one) == one

    def test_point_twist_preserves_strip(self, rng):
        for _ in range(300):
            p = random_phase(rng)
            assert autoeq.apply_to_phase(["TK"], p).shift == p.shift

    def test_shift_rule(self):
        assert autoeq.apply_to_phase(["S"], Phase((-1, 0), 0)) == Phase((-1, 0), 1)

    def test_direction_matches_charge_action(self, rng):
        for _ in range(300):
            w = random_word(rng)
            c = random_charge(rng)
            p = reduced_phase(c)
            q = autoeq.apply_to_phase(w, p)
            c2 = autoeq.apply_to_charge(w, c)
            assert q.dir == reduced_phase(c2).dir


class TestNormalForm:
    def test_double_quarter_turn_is_shift(self):
        ff = autoeq.normal_form(F_WORD + F_WORD)
        s = autoeq.normal_form(["S"])
        assert ff == s
        assert s.ray == ((-1, 0), (0, -1))
        assert s.anchor == Phase((0, 1), 1)  # value 3/2

    def test_shift_squared_and_fourth_power(self):
        s2 = autoeq.normal_form(["S", "S"])
        f4 = autoeq.normal_form(F_WORD * 4)
        assert s2 == f4
        assert s2.ray == ((1, 0), (0, 1))
        assert s2.anchor == Phase((0, 1), 2)  # value 5/2

    def test_quarter_turn_anchor(self):
        f = autoeq.normal_form(F_WORD)
        assert f.ray == ((0, -1), (1, 0))
        assert f.anchor == Phase((-1, 0), 0)  # value 1

    def test_inverse_cancels(self, rng):
        for _ in range(100):
            w = random_word(rng)
            g = autoeq.normal_form(w + autoeq.invert_word(w))
            assert g == lifts.IDENTITY

    def test_compose_matches_concatenation(self, rng):
        for _ in range(150):
            w1, w2 = random_word(rng), random_word(rng)
            g = autoeq.compose(autoeq.normal_form(w1), autoeq.normal_form(w2))
            assert g == autoeq.normal_form(w2 + w1)

    def test_invert_matches_word_inverse(self, rng):
        for _ in range(150):
            w = random_word(rng)
            assert autoeq.invert(autoeq.normal_form(w)) == autoeq.normal_form(
                autoeq.invert_word(w)
            )

    def test_anchor_direction_validated(self):
        with pytest.raises(DomainError):
            autoeq.AutoEq(((1, 0), (0, 1)), Phase((-1, 0), 0))
        with pytest.raises(DomainError):
            autoeq.AutoEq(((1, 0), (0, 2)), Phase((0, 1), 0))


class TestLift:
    def test_identity(self, rng):
        ident = lifts.IDENTITY
        for _ in range(50):
            p = random_phase(rng)
            assert autoeq.lift_phase(ident, p) == p

    def test_central_shift_squared(self, rng):
        s2 = autoeq.normal_form(["S", "S"])
        for _ in range(50):
            p = random_phase(rng)
            assert autoeq.lift_phase(s2, p) == p + 2

    def test_quarter_turn_on_torsion(self):
        f = autoeq.normal_form(F_WORD)
        q = autoeq.lift_phase(f, Phase((-1, 0), 0))
        assert q.approx() == pytest.approx(1.5)

    def test_word_and_lift_agree(self, rng):
        for _ in range(400):
            w = random_word(rng)
            g = autoeq.normal_form(w)
            p = random_phase(rng)
            assert autoeq.apply_to_phase(w, p) == autoeq.lift_phase(g, p)

    def test_monotone(self, rng):
        phases = sorted(
            {random_phase(rng) for _ in range(60)},
            key=lambda p: (p.shift, p.approx()),
        )
        for _ in range(40):
            g = autoeq.normal_form(random_word(rng, 6))
            images = [autoeq.lift_phase(g, p) for p in phases]
            for (p, ip), (q, iq) in zip(
                zip(phases, images), zip(phases[1:], images[1:])
            ):
                assert p.cmp(q) == ip.cmp(iq)

    def test_winding_freedom_is_even(self):
        m = lifts.IDENTITY.matrix
        assert lifts.from_matrix(m, 0).anchor == Phase((0, 1), 0)
        assert lifts.from_matrix(m, 1).anchor == Phase((0, 1), 2)

    def test_positive_determinant_required(self):
        with pytest.raises(DomainError, match="positive determinant"):
            lifts.Lift([[1, 0], [0, -1]], Phase((0, 1), 0))
        # singular matrices whose second column, the image of (0, 1), is zero
        for rows in ([[1, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 1]]):
            with pytest.raises(DomainError, match="positive determinant"):
                lifts.from_matrix(rows)

    def test_evaluation_does_not_rescale(self, rng, monkeypatch):
        # the integer ray matrix is built with the Lift, not per evaluation
        g = lifts.from_matrix([[Fraction(3, 7), Fraction(-5, 2)], [Fraction(1, 3), 4]], 1)
        calls = []
        integral = lifts._integral
        monkeypatch.setattr(lifts, "_integral", lambda m: calls.append(m) or integral(m))
        for _ in range(100):
            lifts.lift_phase(g, random_phase(rng))
        assert calls == []

    def test_ray_over_den_in_lowest_terms(self):
        anchor = Phase((-1, 3), 0)
        g = lifts.Lift([[Fraction(4, 2), -1], [0, Fraction(3)]], anchor)
        h = lifts.Lift(((2, -1), (0, 3)), anchor)
        assert g == h
        assert hash(g) == hash(h)
        assert (g.ray, g.den) == (h.ray, h.den) == (((2, -1), (0, 3)), 1)
        # a rational matrix is stored as its integer multiple over the lcm of its denominators
        k = lifts.Lift([[Fraction(1, 2), Fraction(-1, 4)], [0, Fraction(3, 4)]], anchor)
        assert (k.ray, k.den) == (((2, -1), (0, 3)), 4)
        assert k != g
        # a product or inverse divides out the factor its entries share with den
        half = lifts.from_matrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        assert (half.ray, half.den) == (((1, 0), (0, 1)), 2)
        assert autoeq.compose(half, lifts.from_matrix([[2, 0], [0, 2]])) == lifts.IDENTITY
        assert autoeq.invert(half) == lifts.from_matrix([[2, 0], [0, 2]])

    def test_long_twist_power(self):
        g = lifts.from_matrix(((1, 0), (1000, 1)))
        p = Phase((-1, 1), 0)
        q = autoeq.lift_phase(g, p)
        assert q == Phase((1, 999), 1)
        assert q == letter_word_phase(["TO"] * 1000, p)


def test_phases_built_without_checks_pass_them(rng):
    """Strip shifts, reduced_phase, the run walk, normal_form's anchor,
    from_matrix and lift_phase build phases by Phase._make; each is primitive
    and in the sector, so it rebuilds equal through Phase(dir, shift).
    normal_form, from_matrix, compose and invert build their Lift by
    Lift._make; each rebuilds equal, with an equal hash, through
    Lift(matrix, anchor)."""
    for _ in range(300):
        span = rng.choice((6, 2**64))
        p = random_phase(rng, span)
        w = random_run_word(rng, max_run=50)
        g = autoeq.normal_form(w)
        rows = [[rng.randint(-span, span) for _ in range(2)] for _ in range(2)]
        if lifts.mat_det(rows) < 0:
            rows.reverse()
        h = lifts.from_matrix(rows, rng.randint(-2, 2)) if lifts.mat_det(rows) else g
        built = (p + 3, p - 2, reduced_phase(random_charge(rng, span), rng.randint(-2, 2)),
                 autoeq.apply_to_phase(w, p), g.anchor, h.anchor, lifts.lift_phase(h, p))
        for q in built:
            assert rebuild_checked(q) == q
        for r in (g, h, autoeq.compose(g, h), autoeq.compose(h, g), autoeq.invert(h)):
            b = rebuild_checked(r)
            assert b == r and hash(b) == hash(r)


class TestRunWiseEvaluation:
    """Run-wise evaluation against the per-letter reference rules."""

    def test_short_words(self, rng):
        for _ in range(300):
            w = random_word(rng)
            p = random_phase(rng)
            assert autoeq.apply_to_phase(w, p) == letter_word_phase(w, p)
            assert autoeq.normal_form(w).ray == letter_word_matrix(w)

    def test_runs_up_to_a_thousand(self, rng):
        for _ in range(12):
            w = random_run_word(rng)
            p = random_phase(rng)
            assert autoeq.apply_to_phase(w, p) == letter_word_phase(w, p)
            assert autoeq.normal_form(w).ray == letter_word_matrix(w)

    def test_letters_and_runs_mixed(self, rng):
        for _ in range(200):
            w = random_word(rng) + [(rng.choice(autoeq.LETTERS), rng.randint(-9, 9))]
            w += random_word(rng)
            runs = autoeq.runs(w)
            assert runs == merge_runs(w)
            assert all(n != 0 for _, n in runs)
            assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
            p = random_phase(rng)
            assert autoeq.apply_to_phase(w, p) == letter_word_phase(w, p)
            assert autoeq.normal_form(w).ray == letter_word_matrix(w)
            assert autoeq.invert_word(w) == merge_runs([l.swapcase() for l in reversed(letters(w))])

    @pytest.mark.parametrize("word", [
        [], [("TK", 0)], ["TK", ("tk", 0), ("TK", -1), "tk", ("TO", 2), ("to", 2), "TO"],
        [("S", 3), "s", ("S", -2), ("TO", 1), ("TO", -1), ("to", 0), "tk", ("TK", 5)],
        ["TO", "TO", ("to", -3), ("TK", 0), "S", "S", ("tk", 4), ("tk", -4)],
    ])
    def test_raw_items_walked_unmerged(self, rng, word):
        # bare letters, pairs, zero exponents and adjacent items of one
        # generator go straight into the phase walk, with no merge first
        for _ in range(40):
            p = random_phase(rng, span=20, shifts=3)
            want = letter_word_phase(word, p)
            assert autoeq.apply_to_phase(word, p) == want
            assert autoeq.apply_to_phase(autoeq.runs(word), p) == want

    @pytest.mark.parametrize("item", [("TK", 1.5), ("TK", True), ("XX", 2), ["TK", 2], ("TK",)])
    def test_malformed_run_rejected(self, item):
        with pytest.raises(DomainError):
            autoeq.runs(["TO", item])

    def test_unknown_letter_rejected(self):
        with pytest.raises(DomainError):
            autoeq.apply_to_phase(["TK", "XX"], Phase((0, 1), 0))
        with pytest.raises(DomainError):
            autoeq.normal_form(["XX"])
        with pytest.raises(DomainError):
            autoeq.apply_to_charge(["XX"], Charge(1, 0))

    def test_invert_512_bit_elements(self, rng):
        for _ in range(4):
            w = twist_power_word(rng, 512)
            g = autoeq.normal_form(w)
            inv = autoeq.invert(g)
            wi = autoeq.invert_word(w)
            assert inv.ray == letter_word_matrix(wi)
            assert inv.anchor == letter_word_phase(wi, autoeq.PHASE_HALF)
            assert autoeq.compose(g, inv) == lifts.IDENTITY


def _coprime_charge(rng, bits):
    """Charge with a `bits`-bit rank and a random coprime degree."""
    while True:
        r = rng.getrandbits(bits) | (1 << (bits - 1))
        d = rng.getrandbits(bits) * rng.choice((1, -1))
        if math.gcd(r, d) == 1:
            return Charge(r, d)


class TestIntegerWalk:
    """The gcd-free run walk against the per-letter reference rules."""

    def test_long_runs_at_several_shifts(self, rng):
        for _ in range(10):
            w = random_run_word(rng, runs=8)
            assert autoeq.normal_form(w).ray == letter_word_matrix(w)
            for shift in (-3, 0, 2):
                p = random_phase(rng, span=40, shifts=0) + shift
                assert autoeq.apply_to_phase(w, p) == letter_word_phase(w, p)

    def test_runs_ending_on_the_torsion_axis(self):
        # TO**n can land exactly on y = 0; only the image (1, 0) leaves the sector
        for k in range(1, 8):
            for p, run in ((Phase((1, k), 1), ["to"] * k), (Phase((-1, k), -1), ["TO"] * k)):
                for w in (run, run + ["TK", "TK"], run + ["TO"]):
                    assert autoeq.apply_to_phase(w, p) == letter_word_phase(w, p)

    @pytest.mark.parametrize("bits", [2048, 4096])
    def test_reduction_words(self, bits):
        rng = random.Random(bits)
        c = _coprime_charge(rng, bits)
        w, res = autoeq.reduce_to_torsion(c)
        assert len(w) > bits // 2  # over a thousand runs
        m = letter_word_matrix(w)
        assert autoeq.apply_to_charge(w, c) == plane_charge(m, c) == res
        for p in (autoeq.PHASE_HALF, reduced_phase(c, extra_shift=1)):
            assert autoeq.apply_to_phase(w, p) == letter_word_phase(w, p)
        g = autoeq.normal_form(w)
        assert g.ray == m
        assert autoeq.apply_to_charge(g, c) == res
        assert g.anchor == letter_word_phase(w, autoeq.PHASE_HALF)

    def test_map_phase_to_one_at_4096_bits(self):
        rng = random.Random(4096)
        for shift in (-2, 0, 3):
            p = reduced_phase(_coprime_charge(rng, 4096), extra_shift=shift)
            w = autoeq.map_phase_to_one(p)
            assert autoeq.apply_to_phase(w, p) == Phase((-1, 0), 0)
            assert autoeq.apply_to_charge(w, p.charge()).rk == 0

    @pytest.mark.parametrize(
        "word",
        [["xx"] + ["TK"] * 3, ["TO"] * 5 + ["Tk"], ["S", "s", "TO", ""], ["TK", None]],
    )
    def test_unknown_letters_rejected(self, word):
        with pytest.raises(DomainError):
            autoeq.apply_to_phase(word, Phase((0, 1), 0))
        with pytest.raises(DomainError):
            autoeq.normal_form(word)
        with pytest.raises(DomainError):
            autoeq.apply_to_charge(word, Charge(1, 0))


def _raw_item(rng):
    """A bare letter, or a (letter, n) pair whose n may be 0 or negative."""
    letter = rng.choice(autoeq.LETTERS)
    return letter if rng.random() < 0.4 else (letter, rng.randint(-4, 4))


def _canonical_word(rng, max_runs=6):
    word = []
    for _ in range(rng.randint(0, max_runs)):
        gen = rng.choice([g for g in ("TO", "TK", "S") if not word or g != word[-1][0]])
        word.append((gen, rng.choice((1, -1)) * rng.randint(1, 3)))
    return word


def _inverse(word):
    return [(gen, -n) for gen, n in reversed(word)]


class TestOnePassWalk:
    """normal_form and apply_to_charge walk the raw items once, unmerged, and
    normal_form reads the anchor off the matrix."""

    def test_mixed_raw_items(self, rng):
        for _ in range(500):
            w = [_raw_item(rng) for _ in range(rng.randint(0, 12))]
            m = letter_word_matrix(w)
            g = autoeq.normal_form(w)
            c = random_charge(rng)
            assert g.ray == m
            assert autoeq.apply_to_charge(w, c) == autoeq.apply_to_charge(g, c) == plane_charge(m, c)
            assert g.anchor == letter_word_phase(w, autoeq.PHASE_HALF)

    def test_mixed_words_with_64_bit_exponents(self, rng):
        # bare letters and runs whose exponents reach 2**64, too long to
        # expand into letters, against the run-power references
        for _ in range(20000):
            w = [_raw_item(rng) if rng.random() < 0.5
                 else (rng.choice(autoeq.LETTERS), rng.randint(-2**64, 2**64))
                 for _ in range(rng.randint(0, 8))]
            m = run_power_matrix(w)
            g = autoeq.normal_form(w)
            c = random_charge(rng, span=2**64)
            assert g.ray == m
            assert autoeq.apply_to_charge(w, c) == autoeq.apply_to_charge(g, c) == plane_charge(m, c)
            assert g.anchor == run_power_phase(w, autoeq.PHASE_HALF)

    @pytest.mark.parametrize("word", [
        [("to", -3), "TO", ("TO", 0), "to"],  # lowercase pairs with negative n
        [("TK", 2), "tk", ("tk", 1), ("TK", -1)],  # adjacent items that cancel
        [("S", 0), ("s", 0), ("TO", 0)],  # zero exponents only
        ["S", ("TO", 2), "s", "s", ("to", -1), "S"],  # the anchor crosses strips
        [("s", -3), ("TK", 1), ("TO", 1), ("TK", 1), "S"],
        [("TO", 5), ("to", 5), ("TK", 7), ("tk", 7)],  # the identity
    ])
    def test_items_that_runs_would_merge(self, word):
        g = autoeq.normal_form(word)
        assert g == autoeq.normal_form(autoeq.runs(word))
        assert g.ray == letter_word_matrix(word)
        assert g.anchor == letter_word_phase(word, autoeq.PHASE_HALF)

    def test_long_runs_at_every_anchor_sign(self, rng):
        for _ in range(20):
            w = random_run_word(rng, runs=10, max_run=50)
            g = autoeq.normal_form(w)
            assert g.ray == run_power_matrix(w) == letter_word_matrix(w)
            assert g.anchor == run_power_phase(w, autoeq.PHASE_HALF)

    @pytest.mark.parametrize("item", [
        ("TK", 1.5), ("TK", True), ("XX", 2), ["TK", 2], ("TK",), "xx", "", None, ("TK", 1, 2),
    ])
    def test_bad_item_message_matches_runs(self, item):
        with pytest.raises(DomainError) as want:
            autoeq.runs(["TO", ("TK", 3), item])
        assert str(want.value) == f"unknown generator letter {item!r}"
        for walk in (autoeq.normal_form, lambda w: autoeq.apply_to_charge(w, Charge(1, 0)),
                     lambda w: autoeq.apply_to_phase(w, autoeq.PHASE_HALF)):
            with pytest.raises(DomainError) as got:
                walk(["TO", ("TK", 3), item])
            assert str(got.value) == str(want.value)


class TestSeamJoin:
    """_join merges two canonical words at the seam only."""

    def test_random_pairs(self, rng):
        for _ in range(2000):
            u = _canonical_word(rng)
            v = _canonical_word(rng)
            if rng.random() < 0.4:  # share a suffix so that the join cascades
                v = autoeq.runs(u[:rng.randint(0, len(u))] + v) if rng.random() < 0.5 \
                    else autoeq.runs(v + u)
            assert autoeq._join(u, _inverse(v)) == autoeq.runs(u + autoeq.invert_word(v))

    def test_full_cancellation(self, rng):
        for _ in range(50):
            u = _canonical_word(rng)
            assert autoeq._join(u, _inverse(u)) == []

    def test_multi_run_cascade(self):
        u = [("S", 2), ("TO", 3), ("TK", -1), ("TO", 2), ("S", 1)]
        v = [("TK", 4), ("TO", 2), ("S", 1)]
        # S and TO cancel, then TK -1 and TK -4 merge into TK -5
        assert autoeq._join(u, _inverse(v)) == [("S", 2), ("TO", 3), ("TK", -5)]
        assert autoeq._join(u, _inverse(v)) == autoeq.runs(u + autoeq.invert_word(v))
        # a cascade that consumes all of v leaves a prefix of u
        assert autoeq._join(u, _inverse(u[2:])) == u[:2]
        assert autoeq._join(u[3:], _inverse(u)) == _inverse(u[:3])

    def test_inputs_are_not_changed(self):
        u, v = [("TK", 1), ("TO", 2)], [("TO", -2), ("S", 1)]
        assert autoeq._join(u, v) == [("TK", 1), ("S", 1)]
        assert u == [("TK", 1), ("TO", 2)] and v == [("TO", -2), ("S", 1)]

    @pytest.mark.parametrize("bits", [8, 64, 512, 2048])
    def test_reduction_words_are_canonical(self, bits):
        # _join relies on both words being canonical
        rng = random.Random(bits)
        for _ in range(20 if bits < 2048 else 3):
            c = _coprime_charge(rng, bits)
            w, _ = autoeq.reduce_to_torsion(Charge(c.rk * rng.randint(1, 3), c.deg))
            assert w == autoeq.runs(w)
            for shift in (-2, 0, 3):
                w = autoeq.map_phase_to_one(reduced_phase(c, extra_shift=shift))
                assert w == autoeq.runs(w)

    def test_small_words_are_canonical(self):
        for r in range(-12, 13):
            for d in range(-12, 13):
                if (r, d) == (0, 0):
                    continue
                c = Charge(r, d)
                w, _ = autoeq.reduce_to_torsion(c)
                assert w == autoeq.runs(w)
                if math.gcd(r, d) == 1:
                    for shift in (-1, 0, 2):
                        w = autoeq.map_phase_to_one(reduced_phase(c, extra_shift=shift))
                        assert w == autoeq.runs(w)


def _stepwise_reduction(c):
    """Reduction by search: each step tries every twist power that could
    leave the smallest remainder and keeps the best by (|remainder|, |power|)."""
    word, r, d, ties = [], c.rk, c.deg, 0
    while r != 0:
        window = range(-abs(d) - 1, abs(d) + 2)
        best = min(window, key=lambda k: (abs(d + k * r), abs(k)))
        ties += sum(1 for k in window if k != best and abs(d + k * r) == abs(d + best * r))
        word += ["TK" if best > 0 else "tk"] * abs(best) + F_WORD
        d += best * r
        r, d = -d, r
    return word, Charge(0, d), ties


def _cf_digit_count(r, d):
    r, d = abs(r), abs(d)
    n = 0
    while r != 0:
        r, d = d % r, r
        n += 1
    return n


class TestReduceToTorsion:
    def test_already_torsion(self):
        w, res = autoeq.reduce_to_torsion(Charge(0, 4))
        assert w == [] and res == Charge(0, 4)

    def test_line_bundle_reduces_like_quarter_turn(self):
        w, res = autoeq.reduce_to_torsion(Charge(1, 0))
        assert res == Charge(0, 1)
        assert autoeq.normal_form(w).ray == letter_word_matrix(F_WORD)

    def test_gcd_and_word_replay(self):
        for r in range(-30, 31):
            for d in range(-30, 31):
                if r == 0 and d == 0:
                    continue
                c = Charge(r, d)
                w, res = autoeq.reduce_to_torsion(c)
                assert res.rk == 0
                assert abs(res.deg) == math.gcd(abs(r), abs(d))
                assert autoeq.apply_to_charge(w, c) == res

    def test_word_length_bound(self):
        for r in range(-30, 31):
            for d in range(-30, 31):
                if r == 0 and d == 0:
                    continue
                w, _ = autoeq.reduce_to_torsion(Charge(r, d))
                blocks = len(autoeq.runs(w))
                assert blocks <= 4 * _cf_digit_count(r, d) + 4

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            autoeq.reduce_to_torsion(Charge(0, 0))

    def test_matches_stepwise_search(self):
        ties = 0
        for r in range(-40, 41):
            for d in range(-40, 41):
                if r == 0 and d == 0:
                    continue
                word, res, t = _stepwise_reduction(Charge(r, d))
                assert autoeq.reduce_to_torsion(Charge(r, d)) == (merge_runs(word), res)
                ties += t
        assert ties > 0


def _signed_multiple_pair(rng):
    """A pair k*(r, d) with random signs, |r| and |d| of 8 to 4096 bits
    drawn log-uniformly and apart, and k in 1..3."""
    def entry():
        bits = int(2 ** rng.uniform(3, 12))
        return rng.choice((1, -1)) * (rng.getrandbits(bits) | 1 << (bits - 1))

    k = rng.randint(1, 3)
    return k * entry(), k * entry()


class TestReduceLoop:
    """The positive-rank continued-fraction loop returns the signed-rank
    loop's word, final degree (with its sign) and strip moves."""

    def test_grid(self):
        for r in range(-60, 61):
            for d in range(-60, 61):
                assert autoeq._reduce(r, d) == reference_reduce(r, d), (r, d)

    def test_random_signed_pairs_8_to_4096_bits(self):
        rng = random.Random(1717)
        for _ in range(2000):
            r, d = _signed_multiple_pair(rng)
            assert autoeq._reduce(r, d) == reference_reduce(r, d), (r, d)

    def test_exact_ties(self):
        # d = k*r + r/2 sits halfway between two multiples of r: the tie
        # rule picks the power of least magnitude, at every sign of r and k
        rng = random.Random(1718)
        halves = [1, 2, 3, 5, 7, 2**31 - 1] + [rng.getrandbits(b) | 1 for b in (64, 512, 4096)]
        for h in halves:
            for r in (2 * h, -2 * h):
                for k in range(-3, 4):
                    d = k * r + r // 2
                    assert autoeq._reduce(r, d) == reference_reduce(r, d), (r, d)


class TestTransitivityIsotropy:
    def test_bfs_reaches_all_primitives(self):
        # charge-level transitivity from the torsion generator
        start = Charge(0, 1)
        seen = {(start.rk, start.deg)}
        frontier = deque([start])
        targets = {
            (r, d)
            for r in range(-10, 11)
            for d in range(-10, 11)
            if math.gcd(abs(r), abs(d)) == 1
        }
        while frontier and not targets <= seen:
            c = frontier.popleft()
            for letter in autoeq.LETTERS:
                n = autoeq.apply_to_charge([letter], c)
                key = (n.rk, n.deg)
                if key not in seen and abs(n.rk) <= 40 and abs(n.deg) <= 40:
                    seen.add(key)
                    frontier.append(n)
        assert targets <= seen

    def test_short_isotropy_words_are_point_twist_powers(self):
        one = Phase((-1, 0), 0)
        point_twist_powers = {}
        for m in range(-8, 9):
            w = ["TK"] * m if m >= 0 else ["tk"] * (-m)
            point_twist_powers[autoeq.normal_form(w)] = m
        for n in range(0, 7):
            for word in itertools.product(autoeq.LETTERS, repeat=n):
                word = list(word)
                if autoeq.apply_to_phase(word, one) != one:
                    continue
                assert autoeq.normal_form(word) in point_twist_powers, word


class TestMapPhaseToOne:
    def test_torsion_is_fixed(self):
        assert autoeq.map_phase_to_one(Phase((-1, 0), 0)) == []

    def test_half_maps_by_quarter_turn(self):
        w = autoeq.map_phase_to_one(Phase((0, 1), 0))
        assert autoeq.normal_form(w).ray == letter_word_matrix(F_WORD)
        assert autoeq.apply_to_phase(w, Phase((0, 1), 0)) == Phase((-1, 0), 0)

    def test_shifted_input(self):
        p = Phase((1, 1), 2)  # value 9/4
        w = autoeq.map_phase_to_one(p)
        assert autoeq.apply_to_phase(w, p) == Phase((-1, 0), 0)

    def test_random(self, rng):
        for _ in range(300):
            p = random_phase(rng)
            w = autoeq.map_phase_to_one(p)
            assert autoeq.apply_to_phase(w, p) == Phase((-1, 0), 0)

    def test_grid_against_letter_walk(self):
        # the strip moves read off the reduction equal those of walking the word
        one = Phase((-1, 0), 0)
        for r in range(-40, 41):
            for d in range(-40, 41):
                if math.gcd(r, d) != 1:
                    continue
                for shift in range(-2, 4):
                    p = reduced_phase(Charge(r, d), extra_shift=shift)
                    assert letter_word_phase(autoeq.map_phase_to_one(p), p) == one


class TestRunCost:
    """Counts that grow with the number of continued-fraction digits, not with their size."""

    def test_huge_digit_is_one_run(self):
        c = Charge(1, 10**100)
        w, res = autoeq.reduce_to_torsion(c)
        assert len(w) <= 3
        assert res == Charge(0, 1)
        assert autoeq.normal_form(w).ray == run_power_matrix(w)
        assert autoeq.apply_to_charge(w, c) == res

    def test_huge_shift_is_one_run(self):
        p = Phase((1, 2), 10**20)
        w = autoeq.map_phase_to_one(p)
        assert len(w) <= 6 and w[-1][0] == "S" and all(g != "S" for g, _ in w[:-1])
        assert run_power_phase(w, p) == Phase((-1, 0), 0)
        assert autoeq.apply_to_phase(w, p) == Phase((-1, 0), 0)


class TestWordSerialization:
    def test_round_trip(self, rng):
        for _ in range(100):
            w = random_word(rng)
            assert autoeq.word_from_string(autoeq.word_to_string(w)) == merge_runs(w)

    def test_parse_error(self):
        with pytest.raises(DomainError):
            autoeq.word_from_string("TX")

    def test_run_syntax(self):
        w = [("TK", -3), ("TO", -2), ("S", 2), ("TK", 1)]
        assert autoeq.word_to_string(w) == "tk^3to^2S^2TK"
        for text in ("tk^3to^2S^2TK", "TK^-3TO^-2SSTK", "tktk^2TO^-2s^-2TK^1TO^0"):
            assert autoeq.word_from_string(text) == w
        assert autoeq.word_to_string([("TO", 1), ("TK", -1), ("S", 10**30)]) == "TOtkS^" + "1" + "0" * 30
        assert autoeq.word_from_string("TK^5tk^5") == []

    @pytest.mark.parametrize("text", ["TK^", "TK^-", "toS^-x"])
    def test_bad_exponent_names_the_word(self, text):
        with pytest.raises(DomainError, match="exponent") as info:
            autoeq.word_from_string(text)
        assert repr(text) in str(info.value)

    def test_block_length(self):
        assert len(autoeq.runs([])) == 0
        assert len(autoeq.runs(["TK", "TK", "TO", "TK"])) == 3
