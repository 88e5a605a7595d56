import re
from fractions import Fraction

import pytest

from hnlab import autoeq, lifts, objects
from hnlab.charges import Charge, DomainError, Phase, euler_form, reduced_phase
from hnlab.objects import (
    EXTREME,
    FormalObject,
    JHComposition,
    SemistablePiece,
    StableLabel,
    Verdict,
    jh,
    smooth,
    stable_piece,
)
from conftest import (
    letter_word_matrix,
    letter_word_phase,
    merge_runs,
    random_object,
    random_run_word,
    random_word,
    rebuild_checked,
    reference_applicable_rules,
    reference_hom_verdict,
    shifted_applicable_rules,
    two_loop_sd_chain,
)

HALF = Phase((0, 1), 0)
ONE = Phase((-1, 0), 0)


class TestValidation:
    def test_phase_decrease_enforced(self):
        with pytest.raises(DomainError):
            FormalObject((stable_piece(HALF, EXTREME), stable_piece(ONE, EXTREME)))

    def test_nonperfect_needs_extreme(self):
        with pytest.raises(DomainError):
            SemistablePiece(ONE, jh((smooth("x"), 1)), perfect=False)

    def test_stable_extreme_never_perfect(self):
        with pytest.raises(DomainError):
            SemistablePiece(ONE, jh((EXTREME, 1)), perfect=True)

    def test_indecomposable_multipiece_all_nonperfect(self):
        band = SemistablePiece(ONE, jh((EXTREME, 2)), perfect=True)
        low = stable_piece(HALF, EXTREME)
        with pytest.raises(DomainError):
            FormalObject((band, low), indecomposable=True)
        FormalObject((band, low), indecomposable=False)

    def test_indecomposable_single_piece_single_label(self):
        mixed = SemistablePiece(
            ONE, jh((EXTREME, 1), (smooth("x"), 1)), perfect=True
        )
        with pytest.raises(DomainError):
            FormalObject((mixed,), indecomposable=True)

    def test_zero_object_is_not_indecomposable(self):
        with pytest.raises(DomainError, match="^the zero object is not indecomposable$"):
            FormalObject((), indecomposable=True)
        for flag in (None, False):
            assert FormalObject((), flag).pieces == ()

    def test_labels_distinct(self):
        with pytest.raises(DomainError):
            JHComposition(((EXTREME, 1), (EXTREME, 2)))

    def test_empty_composition_refused(self):
        with pytest.raises(DomainError, match="^composition series must be nonempty$"):
            JHComposition(())

    def test_label_kind_and_identifier(self):
        with pytest.raises(DomainError, match="^unknown label kind 'bogus'$"):
            StableLabel("bogus")
        with pytest.raises(DomainError, match="^extreme label carries no identifier$"):
            StableLabel("extreme", "x")


class TestChargesAndPhases:
    def test_zero_class_complex(self):
        x = objects.catalog()["zero-class-complex"]
        assert objects.total_charge(x) == Charge(0, 0)

    def test_single_piece(self):
        x = FormalObject((stable_piece(HALF, smooth("p")),))
        assert objects.total_charge(x) == Charge(1, 0)

    def test_etale_example(self):
        x = objects.catalog()["etale-rank-two"]
        assert objects.total_charge(x) == Charge(2, 0)
        assert objects.phi_plus(x).approx() == 0.75
        assert objects.phi_minus(x).approx() == 0.25
        charges = [p.charge() for p in x.pieces]
        assert charges == [Charge(1, 1), Charge(1, -1)]
        assert x.indecomposable and objects.classify_type(x) == "IV"

    def test_semistable_extremes_agree(self):
        x = FormalObject((stable_piece(HALF, smooth("p")),))
        assert objects.phi_plus(x) == objects.phi_minus(x)

    def test_shift(self, rng):
        for _ in range(50):
            x = random_object(rng)
            y = objects.shift(x, 1)
            assert objects.phi_plus(y) == objects.phi_plus(x) + 1
            assert objects.total_charge(y) == -objects.total_charge(x)
            assert objects.shift(x, 0) == x
            z = objects.shift(x, 2)
            assert objects.total_charge(z) == objects.total_charge(x)


class TestClassification:
    def test_catalog_types(self):
        cat = objects.catalog()
        assert objects.classify_type(cat["structure-sheaf"]) == "I"
        assert objects.classify_type(cat["smooth-point"]) == "I"
        assert objects.classify_type(cat["singular-point"]) == "III"
        assert objects.classify_type(cat["band"]) == "II"
        assert objects.classify_type(cat["etale-rank-two"]) == "IV"

    def test_requires_flag(self):
        x = FormalObject((stable_piece(ONE, EXTREME),))
        with pytest.raises(DomainError):
            objects.classify_type(x)


class TestHomVerdict:
    def test_bundle_to_torsion_nonzero(self):
        x = objects.catalog()["structure-sheaf"]
        y = objects.catalog()["smooth-point"]
        v = objects.hom_verdict(x, y)
        assert v.kind == "nonzero" and v.rule == "open-phase-window"

    def test_torsion_to_bundle_zero(self):
        x = objects.catalog()["smooth-point"]
        y = objects.catalog()["structure-sheaf"]
        v = objects.hom_verdict(x, y)
        assert v.kind == "zero" and v.rule == "hn-phase-gap"

    def test_singular_point_self_nonzero(self):
        ks = objects.catalog()["singular-point"]
        v = objects.hom_verdict(ks, ks)
        assert v.kind == "nonzero"

    def test_distinct_stable_same_phase_zero(self):
        x = FormalObject((stable_piece(ONE, smooth("x")),))
        y = FormalObject((stable_piece(ONE, smooth("y")),))
        assert objects.hom_verdict(x, y).kind == "zero"

    def test_unknown_when_no_rule_applies(self):
        x = FormalObject((stable_piece(ONE + 3, EXTREME),), indecomposable=True)
        y = FormalObject((stable_piece(ONE, smooth("x")),), indecomposable=True)
        # gap is more than one but the other direction is not perfect-reachable
        v = objects.hom_verdict(y, x)
        assert v.kind in ("unknown", "zero", "nonzero")

    def test_serre_transport_needs_perfect(self, rng):
        for _ in range(2000):
            x, y = random_object(rng), random_object(rng)
            rules = objects.applicable_rules(x, y)
            serre_rules = [r for r in rules if r.rule and r.rule.startswith("serre")]
            if serre_rules:
                assert x.is_perfect() or y.is_perfect()

    def test_no_contradictions_on_random_pairs(self, rng):
        for _ in range(10000):
            x, y = random_object(rng), random_object(rng)
            kinds = {r.kind for r in objects.applicable_rules(x, y)}
            assert not ({"zero", "nonzero"} <= kinds), (x, y)

    def test_serre_duality_examples(self):
        # first self-extension of a point object: no direct rule fires,
        # duality pairs it with an equal-phase identity on the other side
        kx = objects.catalog()["smooth-point"]
        v = objects.hom_verdict(kx, objects.shift(kx, 1))
        assert v.kind == "nonzero"
        assert v.rule == "serre-dual:equal-phase-stable-identity"
        ky = FormalObject((stable_piece(ONE, smooth("y")),), indecomposable=True)
        v = objects.hom_verdict(kx, objects.shift(ky, 1))
        assert v.kind == "zero"
        assert v.rule == "serre-dual:equal-phase-stable-orthogonal"


class TestSerreDualRules:
    """The Serre-dual rules read x's top phase plus one instead of building
    shift(x, 1); the rule list, order included, is the same."""

    @pytest.mark.parametrize("span", [6, 2**256])
    def test_rules_match_the_shifted_object(self, rng, span):
        dual_equal = 0
        for _ in range(3000):
            x, y = random_object(rng, span=span), random_object(rng, span=span)
            if rng.random() < 0.3:  # equal phases across the shift
                y = objects.shift(x, rng.randint(0, 2))
            direct = [Verdict(k, r) for k, r in objects._direct(x, y, 0, "")]
            assert direct == shifted_applicable_rules(x, y, False)
            rules = objects.applicable_rules(x, y)
            assert rules == shifted_applicable_rules(x, y, True)
            dual_equal += any(r.rule.startswith("serre-dual:equal") for r in rules)
        assert dual_equal > 20


def _object_at(rng, phase, span):
    """A random one-piece object moved to `phase`: only the phase changes,
    so the piece and the flag stay valid."""
    z = random_object(rng, max_pieces=1, span=span)
    p = z.pieces[0]
    return FormalObject((SemistablePiece(phase, p.jh, p.perfect),), z.indecomposable)


def _pair(rng, span):
    """Random objects, a quarter of them shifted copies and a quarter
    meeting at equal phases, directly or across the Serre shift."""
    x, y = random_object(rng, span=span), random_object(rng, span=span)
    u = rng.random()
    if u < 0.25:
        y = objects.shift(x, rng.randint(-2, 2))
    elif u < 0.375:  # y's top phase is x's bottom phase
        y = _object_at(rng, objects.phi_minus(x), span)
    elif u < 0.5:  # y's bottom phase is x's top phase plus one
        y = _object_at(rng, objects.phi_plus(x) + 1, span)
    return x, y


class TestRuleStream:
    """objects._rules is the rule list of the engine it replaced, lazily;
    applicable_rules and hom_verdict read it."""

    @pytest.mark.parametrize("span", [6, 2**256])
    def test_matches_the_reference_engine(self, rng, span):
        seen = set()
        for _ in range(12000):
            x, y = _pair(rng, span)
            ref, verdict = reference_applicable_rules(x, y), reference_hom_verdict(x, y)
            assert list(objects._rules(x, y)) == [(v.kind, v.rule) for v in ref]
            assert objects.applicable_rules(x, y) == ref
            assert objects.hom_verdict(x, y) == verdict
            seen.update(v.rule for v in ref)
            seen.add(verdict.kind)
        # every rule, direct and dual, and every kind of verdict came up
        rules = ("hn-phase-gap", "open-phase-window", "equal-phase-stable-identity",
                 "equal-phase-stable-orthogonal", "equal-phase-indecomposable-extreme",
                 "equal-phase-isotypic")
        assert {*rules, *("serre-dual:" + r for r in rules), "unknown"} <= seen

    def test_empty_objects_give_the_same_errors(self):
        x, zero = objects.catalog()["structure-sheaf"], FormalObject(())
        for a, b in ((zero, x), (x, zero), (zero, zero)):
            with pytest.raises(DomainError, match="^hom verdict needs nonempty objects$"):
                objects.hom_verdict(a, b)
            with pytest.raises(DomainError, match="^empty object has no phases$"):
                objects.applicable_rules(a, b)
            with pytest.raises(DomainError, match="^empty object has no phases$"):
                reference_applicable_rules(a, b)

    def test_one_verdict_and_no_phase_built(self, rng, monkeypatch):
        pairs = [_pair(rng, 6) for _ in range(300)]
        kinds = {objects.hom_verdict(x, y).kind for x, y in pairs}
        assert kinds == {"zero", "nonzero", "unknown"}
        built, made = [], []
        real_make = Phase._make

        def verdict(*args):
            built.append(args)
            return Verdict(*args)

        def make(*args):
            made.append(args)
            return real_make(*args)

        monkeypatch.setattr(objects, "Verdict", verdict)
        monkeypatch.setattr(Phase, "_make", staticmethod(make))
        monkeypatch.setattr(Phase, "__add__", lambda p, n: made.append((p, n)))
        for x, y in pairs:
            built.clear()
            v = objects.hom_verdict(x, y)
            assert built == [(v.kind, v.rule)] and made == []

    def test_catalog_rules_never_disagree(self, rng):
        cat = list(objects.catalog().values())
        words = [[]] + [random_run_word(rng, max_run=5) for _ in range(3)]
        for w in words:
            tcat = [objects.transform(x, w) for x in cat]
            for x in tcat:
                for y in tcat:
                    for n in range(-2, 3):
                        ys = objects.shift(y, n)
                        kinds = {k for k, _ in objects._rules(x, ys)}
                        assert not {"zero", "nonzero"} <= kinds, (x, ys)


class TestEquivariance:
    def test_transform_keeps_validity_and_verdicts(self, rng):
        for _ in range(300):
            x, y = random_object(rng), random_object(rng)
            w = random_word(rng, 5)
            tx, ty = objects.transform(x, w), objects.transform(y, w)
            assert objects.total_charge(tx) == autoeq.apply_to_charge(
                w, objects.total_charge(x)
            )
            v1 = objects.hom_verdict(x, y)
            v2 = objects.hom_verdict(tx, ty)
            assert (v1.kind, v1.rule) == (v2.kind, v2.rule)

    @pytest.mark.parametrize("span", [6, 2**256])
    def test_transform_matches_per_piece_phase_action(self, rng, span):
        for _ in range(500):
            x = random_object(rng, span=span)
            w = rng.choice((random_word(rng, 8), random_run_word(rng, max_run=50),
                            [(rng.choice(autoeq.LETTERS), rng.randint(-9, 9)) for _ in range(4)]))
            tx = objects.transform(x, w)
            assert tx.indecomposable == x.indecomposable
            assert [(p.phase, p.jh, p.perfect) for p in tx.pieces] == [
                (autoeq.apply_to_phase(w, p.phase), p.jh, p.perfect) for p in x.pieces
            ]


class TestTrustedRebuilds:
    """shift, transform and sd_chain build their pieces and objects without
    the checks; rebuilt through the checked constructors they are equal."""

    def test_shift(self, rng):
        for _ in range(300):
            x = random_object(rng, span=rng.choice((6, 2**64)))
            for n in range(-3, 4):
                y = objects.shift(x, n)
                assert rebuild_checked(y) == y

    def test_transform(self, rng):
        for _ in range(300):
            x = random_object(rng, span=rng.choice((6, 2**64)))
            w = rng.choice((random_word(rng, 8), random_run_word(rng, max_run=50)))
            tx = objects.transform(x, w)
            assert rebuild_checked(tx) == tx

    def test_sd_chain(self, rng):
        for _ in range(200):
            slopes = set()
            n = rng.randint(1, 30)
            while len(slopes) < n:
                r = rng.randint(2, 40)
                slopes.add(Fraction(rng.randint(1, r - 1), r))
            _, ledger = objects.sd_chain(sorted(slopes))
            assert rebuild_checked(ledger) == ledger


class TestSpherical:
    def test_catalog_suite(self):
        cat = objects.catalog()
        assert objects.is_spherical(cat["structure-sheaf"])[0]
        assert objects.is_spherical(cat["smooth-point"])[0]
        shifted = objects.shift(cat["smooth-point"], 3)
        assert objects.is_spherical(shifted)[0]
        ok, reason = objects.is_spherical(cat["singular-point"])
        assert not ok and "extreme" in reason
        ok, reason = objects.is_spherical(cat["etale-rank-two"])
        assert not ok and reason == "not semistable"
        ok, reason = objects.is_spherical(cat["band"])
        assert not ok and reason == "not stable"

    def test_connect_same_object(self):
        o = objects.catalog()["structure-sheaf"]
        word, relabel = objects.spherical_connect(o, o)
        assert autoeq.normal_form(word) == lifts.IDENTITY
        assert relabel is None

    def test_connect_structure_sheaf_to_point(self):
        o = objects.catalog()["structure-sheaf"]
        k = FormalObject((stable_piece(ONE, smooth("p0")),), indecomposable=True)
        word, relabel = objects.spherical_connect(o, k)
        assert autoeq.normal_form(word).ray == letter_word_matrix(autoeq.FLIP_WORD)
        assert relabel is None

    def test_connect_two_points_relabels(self):
        kx = FormalObject((stable_piece(ONE, smooth("x")),))
        ky = FormalObject((stable_piece(ONE, smooth("y")),))
        word, relabel = objects.spherical_connect(kx, ky)
        assert word == [] and relabel == ("x", "y")

    def test_connect_round_trips_charge_and_phase(self, rng):
        for _ in range(100):
            p1 = reduced_phase(
                Charge(rng.randint(-6, 6), rng.randint(-6, 6) or 1),
                extra_shift=rng.randint(-2, 2),
            )
            p2 = reduced_phase(
                Charge(rng.randint(-6, 6) or 1, rng.randint(-6, 6)),
                extra_shift=rng.randint(-2, 2),
            )
            s1 = FormalObject((stable_piece(p1, smooth("a")),))
            s2 = FormalObject((stable_piece(p2, smooth("b")),))
            word, relabel = objects.spherical_connect(s1, s2)
            assert autoeq.apply_to_phase(word, p1) == p2
            assert autoeq.apply_to_charge(word, p1.charge()) == p2.charge()
            assert relabel == ("a", "b")

    def test_connecting_word_is_merged_at_the_seam(self):
        # both halves end and start with shift and TK runs that meet at the seam
        for p1, p2 in ((Phase((1, 2), 3), Phase((1, 2), 1)), (HALF + 2, HALF + 2),
                       (Phase((-2, 3), -1), Phase((1, 1), 4))):
            s1 = FormalObject((stable_piece(p1, smooth("a")),))
            s2 = FormalObject((stable_piece(p2, smooth("a")),))
            word, _ = objects.spherical_connect(s1, s2)
            assert word == merge_runs(word)
            assert letter_word_phase(word, p1) == p2

    @pytest.mark.parametrize("bits", [4, 64, 1024])
    def test_connecting_word_equals_the_recanonicalised_join(self, rng, bits):
        # spherical_connect joins at the seam; recanonicalising the whole word gives the same
        for _ in range(40 if bits < 1024 else 4):
            charges = [Charge(rng.getrandbits(bits) + 1, rng.getrandbits(bits + 1) - 2**bits)
                       for _ in range(2)]
            p1, p2 = (reduced_phase(c, extra_shift=rng.randint(-3, 3)) for c in charges)
            if rng.random() < 0.3:
                p2 = p1 + rng.randint(-2, 2)  # equal or shifted phases: most runs cancel
            s1 = FormalObject((stable_piece(p1, smooth("a")),))
            s2 = FormalObject((stable_piece(p2, smooth("a")),))
            word, _ = objects.spherical_connect(s1, s2)
            w1, w2 = autoeq.map_phase_to_one(p1), autoeq.map_phase_to_one(p2)
            assert word == autoeq.runs(w1 + autoeq.invert_word(w2))
            assert autoeq.apply_to_phase(word, p1) == p2

    def test_rejects_non_spherical(self):
        with pytest.raises(DomainError):
            objects.spherical_connect(
                objects.catalog()["singular-point"],
                objects.catalog()["structure-sheaf"],
            )


class TestSdConstruction:
    def test_charge_formula(self):
        assert objects.sd_charge((0,)) == Charge(1, 1)
        assert objects.sd_charge((-1, 0)) == Charge(2, 0)
        with pytest.raises(DomainError):
            objects.sd_charge(())

    def test_concatenation_identity(self, rng):
        for _ in range(100):
            d1 = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
            d2 = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
            plus = d1[:-1] + (d1[-1] + 1,)
            assert objects.sd_charge(plus + d2) == objects.sd_charge(
                d1
            ) + objects.sd_charge(d2)

    def test_single_slope(self):
        d0, ledger = objects.sd_chain([Fraction(1, 2)])
        assert d0 == (0, 0)
        assert len(ledger.pieces) == 1
        assert objects.total_charge(ledger) == Charge(2, 1)

    def test_two_slopes(self):
        d0, ledger = objects.sd_chain([Fraction(1, 3), Fraction(1, 2)])
        charges = [p.charge() for p in ledger.pieces]
        assert charges == [Charge(2, 1), Charge(3, 1)]
        assert objects.total_charge(ledger) == Charge(5, 2)
        assert objects.sd_charge(d0) == Charge(5, 2)

    def test_telescoping_random(self, rng):
        for _ in range(100):
            n = rng.randint(1, 5)
            slopes = sorted(
                {
                    Fraction(rng.randint(1, 9), rng.randint(10, 20))
                    for _ in range(n)
                }
            )
            d0, ledger = objects.sd_chain(slopes)
            assert objects.total_charge(ledger) == objects.sd_charge(d0)
            phases = [p.phase for p in ledger.pieces]
            assert all(a > b for a, b in zip(phases, phases[1:]))
            assert all(0 < p.approx() < 1 for p in phases)

    def test_matches_two_loop_build(self, rng):
        for _ in range(300):
            slopes = set()
            n = rng.randint(5, 30)
            while len(slopes) < n:
                r = rng.randint(2, 40)
                slopes.add(Fraction(rng.randint(1, r - 1), r))
            slopes = sorted(slopes)
            assert objects.sd_chain(slopes) == two_loop_sd_chain(slopes)

    def test_matches_two_loop_build_at_large_sizes(self, rng):
        # up to 200 slopes with denominators up to 1,000, beyond the
        # benchmark's 30 slopes of denominator at most 40; and the smallest
        # blocks, of length 2
        cases = [[Fraction(1, 2)], [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]]
        for n in (1, 2, 20, 200, 200):
            slopes = set()
            while len(slopes) < n:
                r = rng.randint(2, 1000)
                slopes.add(Fraction(rng.randint(1, r - 1), r))
            cases.append(sorted(slopes))
        for slopes in cases:
            assert objects.sd_chain(slopes) == two_loop_sd_chain(slopes)

    def test_slopes_of_any_exact_type(self, rng):
        # Fractions are used as they are, strings become Fractions; the
        # result equals the all-Fraction call
        for _ in range(100):
            slopes, n = set(), rng.randint(1, 20)
            while len(slopes) < n:
                r = rng.randint(2, 40)
                slopes.add(Fraction(rng.randint(1, r - 1), r))
            slopes = sorted(slopes)
            k = rng.randint(2, 5)
            mixed = [rng.choice((s, str(s), f"{k * s.numerator}/{k * s.denominator}"))
                     for s in slopes]
            got = objects.sd_chain(mixed)
            assert got == objects.sd_chain(slopes) == two_loop_sd_chain(slopes)
        for bad in ([0], [1], [Fraction(1, 2), 1], ["1/2", "1"], [-1, "1/3"]):
            with pytest.raises(DomainError, match="^slopes must lie strictly between 0 and 1$"):
                objects.sd_chain(bad)
        # a value Fraction cannot read is refused as a DomainError naming it
        for bad in (["1/2", "x"], [None], ["1/0"]):
            with pytest.raises(DomainError, match=f"^{re.escape(f'bad rational {bad[-1]!r}')}$"):
                objects.sd_chain(bad)
            with pytest.raises((ValueError, TypeError, ZeroDivisionError)):
                [Fraction(s) for s in bad]

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            objects.sd_chain([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(DomainError, match="slopes must strictly increase"):
            objects.sd_chain([Fraction(1, 3), Fraction(2, 6)])
        with pytest.raises(DomainError):
            objects.sd_chain([Fraction(3, 2)])
