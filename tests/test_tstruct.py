import math
import random
from fractions import Fraction

import pytest

from hnlab import objects, serialize, tstruct
from hnlab.charges import (
    Charge,
    DomainError,
    Phase,
    RationalCut,
    SurdCut,
    _surd_sign,
    cut_cmp,
    euler_form,
    reduced_phase,
)
from hnlab.objects import (
    EXTREME,
    FormalObject,
    SemistablePiece,
    jh,
    smooth,
    stable_piece,
)
from hnlab.tstruct import EMPTY_SPEC, StableSubsetSpec, TStructure
from conftest import (
    epi_state_period,
    epi_states,
    gcd_epi_chain,
    in_cut_window,
    outcome,
    random_object,
    random_phase,
    random_piece,
    rebuild_checked,
    reference_epi_chain,
    reference_membership,
    stepwise_epi_chain,
)

ONE = Phase((-1, 0), 0)
HALF = Phase((0, 1), 0)
GOLDEN = SurdCut(1, 1, 2, 5, strip=-1)


def _random_cut(rng):
    if rng.random() < 0.5:
        c = Charge(rng.randint(-5, 5), rng.randint(-5, 5) or 1)
        return RationalCut(reduced_phase(c, extra_shift=rng.randint(-2, 2)))
    a = rng.randint(-6, 6)
    b = rng.choice([i for i in range(-3, 4) if i])
    return SurdCut(a, b, rng.randint(1, 4), rng.choice([2, 3, 5, 7]), rng.randint(-2, 2))


class TestSubsetSpec:
    def test_contains(self):
        spec = StableSubsetSpec(True, "only", frozenset({"x"}))
        assert spec.contains(EXTREME)
        assert spec.contains(smooth("x"))
        assert not spec.contains(smooth("y"))

    def test_complement_partitions(self, rng):
        specs = [
            EMPTY_SPEC,
            StableSubsetSpec(True, "all"),
            StableSubsetSpec(False, "only", frozenset({"a", "b"})),
            StableSubsetSpec(True, "all-except", frozenset({"a"})),
        ]
        labels = [EXTREME, smooth("a"), smooth("b"), smooth("c")]
        for spec in specs:
            comp = spec.complement()
            for lab in labels:
                assert spec.contains(lab) != comp.contains(lab)

    def test_one_spelling_for_an_empty_id_set(self):
        # only {} is none and all-except {} is all: equal, with equal hashes,
        # one encoding and equal complements, whatever empty set is given
        cut = RationalCut(HALF)
        for extreme in (False, True):
            for mode, bare in (("only", "none"), ("all-except", "all")):
                t = StableSubsetSpec(extreme, bare)
                for ids in (frozenset(), set(), ()):
                    s = StableSubsetSpec(extreme, mode, ids)
                    assert s == t and hash(s) == hash(t)
                    assert TStructure(cut, s) == TStructure(cut, t)
                    assert hash(TStructure(cut, s)) == hash(TStructure(cut, t))
                    assert serialize.encode_subset(s) == {"extreme": extreme, "smooth": bare}
                    assert s.complement() == t.complement()
                    assert s.complement().complement() == s
                data = {"extreme": extreme, "smooth": {mode: []}}
                assert serialize.decode_subset(data) == t

    def test_ids_are_a_set_of_strings(self):
        # any collection of strings is stored as a frozenset, so the spec
        # hashes and equals the frozenset spelling
        for ids in ({"x", "y"}, ["y", "x", "x"], ("x", "y"), frozenset({"x", "y"})):
            s = StableSubsetSpec(False, "only", ids)
            assert s.smooth_ids == frozenset({"x", "y"}) and type(s.smooth_ids) is frozenset
            t = StableSubsetSpec(False, "only", frozenset({"x", "y"}))
            assert s in {t} and TStructure(RationalCut(HALF), s) in {TStructure(RationalCut(HALF), t)}
        # one string is refused, not read as the set of its characters
        for mode in ("only", "all-except", "none"):
            with pytest.raises(DomainError, match="^smooth ids given as one string 'xy'$"):
                StableSubsetSpec(False, mode, "xy")
        with pytest.raises(DomainError, match="^smooth ids given as one string ''$"):
            StableSubsetSpec(False, "only", "")
        for ids in ({1}, {"x", 2}, [("x",)], {None}):
            with pytest.raises(DomainError, match="^smooth ids must be strings$"):
                StableSubsetSpec(True, "all-except", ids)
        for ids in (5, None, [["x"]], [{"x"}]):
            with pytest.raises(DomainError, match="^smooth ids must be a collection of strings$"):
                StableSubsetSpec(False, "only", ids)

    def test_validation(self):
        with pytest.raises(DomainError):
            StableSubsetSpec(False, "some")
        with pytest.raises(DomainError):
            StableSubsetSpec(False, "all", frozenset({"x"}))

    def test_is_empty(self):
        assert EMPTY_SPEC.is_empty()
        assert StableSubsetSpec(False, "only", frozenset()).is_empty()
        assert not StableSubsetSpec(True, "none").is_empty()
        assert not StableSubsetSpec(False, "all-except", frozenset({"x"})).is_empty()


class TestNoetherian:
    def test_matrix(self):
        cuts = [
            RationalCut(ONE),
            RationalCut(HALF),
            RationalCut(Phase((2, 1), -1)),
            RationalCut(Phase((-3, 2), 2)),
        ]
        specs = [
            EMPTY_SPEC,
            StableSubsetSpec(True, "none"),
            StableSubsetSpec(False, "all"),
            StableSubsetSpec(False, "only", frozenset({"x"})),
            StableSubsetSpec(True, "all-except", frozenset({"x"})),
        ]
        for cut in cuts:
            for spec in specs:
                t = TStructure(cut, spec)
                assert tstruct.is_noetherian(t) == spec.is_empty()
        assert not tstruct.is_noetherian(TStructure(GOLDEN))

    def test_surd_cut_rejects_subsets(self):
        with pytest.raises(DomainError):
            TStructure(GOLDEN, StableSubsetSpec(True, "none"))


class TestMembership:
    def test_standard_heart(self):
        # cut at phase 0: the heart is the phase window (0, 1]
        t = TStructure(RationalCut(ONE - 1))
        coherent = objects.catalog()["structure-sheaf"]
        m = tstruct.membership(t, coherent)
        assert m == frozenset({"aisle-leq0", "heart"})
        torsion = objects.catalog()["smooth-point"]
        assert "heart" in tstruct.membership(t, torsion)

    def test_shifts_move_between_aisles(self):
        t = TStructure(RationalCut(ONE - 1))
        o = objects.catalog()["structure-sheaf"]
        up = objects.shift(o, 1)
        assert tstruct.membership(t, up) == frozenset({"aisle-leq0"})
        down = objects.shift(o, -1)
        assert tstruct.membership(t, down) == frozenset({"aisle-geq1"})

    def test_cut_phase_follows_subset(self):
        kx = objects.catalog()["smooth-point"]
        ks = objects.catalog()["singular-point"]
        down = TStructure(RationalCut(ONE), StableSubsetSpec(False, "all"))
        assert "aisle-leq0" in tstruct.membership(down, kx)
        assert "aisle-leq0" not in tstruct.membership(down, ks)
        assert "aisle-geq1" in tstruct.membership(down, ks)

    def test_straddling_object_in_neither(self):
        t = TStructure(RationalCut(ONE))
        x = FormalObject(
            (stable_piece(ONE + 2, EXTREME), stable_piece(HALF, EXTREME)),
        )
        assert tstruct.membership(t, x) == frozenset()

    def test_surd_membership(self):
        t = TStructure(GOLDEN)
        line = FormalObject((stable_piece(HALF, smooth("p")),))
        m = tstruct.membership(t, line)
        assert m == frozenset({"aisle-leq0", "heart"})


# the cuts the object-small benchmark draws for surd t-structures
BENCH_SURDS = ((1, 1, 2, 5), (0, 1, 1, 2), (0, 1, 1, 3), (-5, 3, 4, 11))
MODES = ("none", "all", "only", "all-except")


def _object_near(rng, strip, phases=()):
    """A 1-8-piece object with random labels from the extreme stable and
    x, y, z, on distinct phases drawn from `phases` and from random phases
    in (strip - 1, strip + 2], which holds the window (cut, cut + 1] of a
    cut in strip (strip, strip + 1]."""
    pool = {(p.dir, p.shift): p for p in phases}
    while len(pool) < len(phases) + 8:
        p = random_phase(rng, shifts=0) + strip + rng.randint(0, 1)
        pool.setdefault((p.dir, p.shift), p)
    chosen = sorted(rng.sample(list(pool.values()), rng.randint(1, 8)), reverse=True)
    return FormalObject(tuple(random_piece(rng, p) for p in chosen))


def _spec(rng, mode):
    ids = frozenset(rng.sample("xyz", rng.randint(0, 3))) if mode in MODES[2:] else frozenset()
    return StableSubsetSpec(rng.random() < 0.5, mode, ids)


class TestMembershipAgainstReference:
    def test_lattice_cuts(self, rng):
        for mode in MODES:
            for _ in range(300):
                cut = random_phase(rng)
                t = TStructure(RationalCut(cut), _spec(rng, mode))
                x = _object_near(rng, cut.shift, [cut, cut + 1, cut - 1, cut + 2])
                assert tstruct.membership(t, x) == reference_membership(t, x)

    @pytest.mark.parametrize("surd", BENCH_SURDS)
    def test_bench_surd_cuts(self, rng, surd):
        for strip in range(-2, 3):
            t = TStructure(SurdCut(*surd, strip))
            for _ in range(60):
                x = _object_near(rng, strip)
                assert tstruct.membership(t, x) == reference_membership(t, x)

    def test_builds_no_spec_or_cut(self, rng, value_builds):
        cases = []
        for mode in MODES:
            cut = random_phase(rng)
            x = _object_near(rng, cut.shift, [cut, cut + 1])
            cases.append((TStructure(RationalCut(cut), _spec(rng, mode)), x))
        cases += [(TStructure(SurdCut(*s)), _object_near(rng, 0)) for s in BENCH_SURDS]
        counts = value_builds(StableSubsetSpec, RationalCut, SurdCut)
        for t, x in cases:
            tstruct.membership(t, x)
        assert counts == {}


def _agrees_with_truncate(t, x):
    """membership(t, x) read off the sides of truncate: the lower aisle
    when the upper side is empty, the upper aisle when the lower side is,
    and the heart when x is in the lower aisle and x[-1] has no lower side."""
    m = tstruct.membership(t, x)
    a, b = tstruct.truncate(t, x)
    below = tstruct.truncate(t, objects.shift(x, -1))[0]
    assert ("aisle-leq0" in m) == (not b.pieces)
    assert ("aisle-geq1" in m) == (not a.pieces)
    assert ("heart" in m) == (not b.pieces and not below.pieces)


class TestMembershipAgreesWithTruncate:
    @pytest.mark.parametrize("mode", MODES)
    def test_lattice_cuts(self, rng, mode):
        for _ in range(300):
            cut = random_phase(rng)
            t = TStructure(RationalCut(cut), _spec(rng, mode))
            _agrees_with_truncate(t, _object_near(rng, cut.shift, [cut, cut + 1, cut - 1, cut + 2]))

    @pytest.mark.parametrize("surd", BENCH_SURDS)
    def test_bench_surd_cuts(self, rng, surd):
        for strip in range(-2, 3):
            t = TStructure(SurdCut(*surd, strip))
            for _ in range(60):
                _agrees_with_truncate(t, _object_near(rng, strip))


class TestTruncate:
    def test_splits_by_phase(self):
        t = TStructure(RationalCut(ONE))
        x = FormalObject(
            (stable_piece(ONE + 2, EXTREME), stable_piece(HALF, EXTREME)),
        )
        a, b = tstruct.truncate(t, x)
        assert [p.phase for p in a.pieces] == [ONE + 2]
        assert [p.phase for p in b.pieces] == [HALF]

    def test_splits_cut_piece_by_labels(self):
        t = TStructure(
            RationalCut(ONE), StableSubsetSpec(False, "only", frozenset({"x"}))
        )
        x = FormalObject(
            (SemistablePiece(ONE, jh((smooth("x"), 1), (EXTREME, 2)), True),)
        )
        a, b = tstruct.truncate(t, x)
        assert a.pieces[0].jh.labels() == {smooth("x")}
        assert b.pieces[0].jh.labels() == {EXTREME}
        assert not b.pieces[0].perfect

    def test_charge_additive_and_aisle_correct(self, rng):
        for _ in range(400):
            t = TStructure(_random_cut(rng))
            x = random_object(rng)
            a, b = tstruct.truncate(t, x)
            ca = objects.total_charge(a) if a.pieces else Charge(0, 0)
            cb = objects.total_charge(b) if b.pieces else Charge(0, 0)
            assert ca + cb == objects.total_charge(x)
            if a.pieces:
                assert "aisle-leq0" in tstruct.membership(t, a)
            if b.pieces:
                assert "aisle-geq1" in tstruct.membership(t, b)

    def test_no_backward_homs_between_sides(self, rng):
        # the upper part never maps back: lower-aisle phases sit at or above
        # the cut while upper-aisle phases sit at or below it, and at the cut
        # the label sets are disjoint
        for _ in range(300):
            t = TStructure(_random_cut(rng))
            x = random_object(rng)
            a, b = tstruct.truncate(t, x)
            if not a.pieces or not b.pieces:
                continue
            for p in a.pieces:
                for q in b.pieces:
                    if p.phase == q.phase:
                        assert not (p.jh.labels() & q.jh.labels())
                    else:
                        assert p.phase > q.phase

    def test_shift_compatibility(self, rng):
        for _ in range(200):
            cut = _random_cut(rng)
            up = (
                RationalCut(cut.phase + 1)
                if isinstance(cut, RationalCut)
                else cut.shifted(1)
            )
            x = random_object(rng)
            a1, b1 = tstruct.truncate(TStructure(cut), x)
            a2, b2 = tstruct.truncate(TStructure(up), objects.shift(x, 1))
            assert a2 == objects.shift(a1, 1) or (not a1.pieces and not a2.pieces)
            assert b2 == objects.shift(b1, 1) or (not b1.pieces and not b2.pieces)


class TestTrustedRebuilds:
    """truncate, _split_piece and SurdCut.shifted build their results
    without the checks; rebuilt through the checked constructors they are
    equal."""

    def test_truncate(self, rng):
        splits = 0
        for _ in range(800):
            x = random_object(rng)
            if rng.random() < 0.6:
                # a cut at one of x's phases splits that piece by its labels
                mode = rng.choice(("none", "all", "only", "all-except"))
                ids = rng.sample("xyz", rng.randint(0, 2)) if mode in ("only", "all-except") else ()
                t = TStructure(RationalCut(rng.choice(x.pieces).phase),
                               StableSubsetSpec(rng.random() < 0.5, mode, frozenset(ids)))
            else:
                t = TStructure(_random_cut(rng))
            a, b = tstruct.truncate(t, x)
            assert rebuild_checked(a) == a and rebuild_checked(b) == b
            splits += any(p.phase == q.phase for p in a.pieces for q in b.pieces)
        assert splits > 30

    def test_shifted_surd_cut(self, rng):
        for _ in range(200):
            cut = _random_cut(rng)
            if isinstance(cut, SurdCut):
                for n in range(-3, 4):
                    assert rebuild_checked(cut.shifted(n)) == cut.shifted(n)


class TestWitnesses:
    def test_noetherian_has_none(self):
        with pytest.raises(DomainError):
            tstruct.non_noetherian_witness(TStructure(RationalCut(ONE)), 3)

    def test_length_must_be_positive(self):
        t = TStructure(RationalCut(ONE), StableSubsetSpec(False, "all"))
        with pytest.raises(DomainError, match="^witness length must be positive$"):
            tstruct.non_noetherian_witness(t, 0)

    def test_smooth_chain(self):
        t = TStructure(RationalCut(ONE), StableSubsetSpec(False, "all"))
        w = tstruct.non_noetherian_witness(t, 3)
        assert w["kind"] == "smooth-chain"
        assert w["conjugation"] == []
        assert w["charges"] == [Charge(1, 1), Charge(1, 2), Charge(1, 3)]
        assert "point object" in w["cokernel"]

    def test_extreme_chain(self):
        t = TStructure(RationalCut(ONE), StableSubsetSpec(True, "none"))
        w = tstruct.non_noetherian_witness(t, 2)
        assert w["kind"] == "extreme-chain"
        assert w["charges"] == [Charge(1, 2), Charge(1, 4)]

    def test_conjugation_moves_cut_to_torsion(self, rng):
        from hnlab import autoeq

        for _ in range(50):
            cut = RationalCut(
                reduced_phase(
                    Charge(rng.randint(-4, 4), rng.randint(-4, 4) or 1),
                    extra_shift=rng.randint(-1, 1),
                )
            )
            t = TStructure(cut, StableSubsetSpec(True, "all"))
            w = tstruct.non_noetherian_witness(t, 1)
            assert autoeq.apply_to_phase(w["conjugation"], cut.phase) == ONE

    def test_strip_chain(self):
        t = TStructure(GOLDEN)
        w = tstruct.non_noetherian_witness(t, 4)
        assert w["kind"] == "strip-chain"
        assert len(w["charges"]) == 4

    def test_strip_chain_one_strip_up_is_negated(self):
        # the window moves by one strip, so the seed and every member flip sign
        w = tstruct.non_noetherian_witness(TStructure(GOLDEN), 4)
        up = tstruct.non_noetherian_witness(TStructure(GOLDEN.shifted(1)), 4)
        assert (w["seed"], up["seed"]) == (Charge(1, 0), Charge(-1, 0))
        assert up["charges"] == [-c for c in w["charges"]]

    def test_excluded_ident_avoided(self):
        spec = StableSubsetSpec(False, "all-except", frozenset({"x", "x1"}))
        t = TStructure(RationalCut(ONE), spec)
        w = tstruct.non_noetherian_witness(t, 1)
        assert w["ident"] not in {"x", "x1"}


    @pytest.mark.parametrize("spec, ident", [
        (StableSubsetSpec(False, "all"), "x"),
        (StableSubsetSpec(False, "only", frozenset({"y", "z"})), "y"),
        (StableSubsetSpec(False, "all-except", frozenset({"x", "x1"})), "x2"),
        (StableSubsetSpec(True, "none"), None),
        (StableSubsetSpec(True, "only"), None),
    ], ids=["all", "only-yz", "all-except-x-x1", "none", "only-empty"])
    def test_chosen_ident_per_mode(self, spec, ident):
        # the least id of a finite subset, the first of x, x1, ... outside a
        # cofinite one, and the extreme chain when no smooth label is pushed down
        w = tstruct.non_noetherian_witness(TStructure(RationalCut(ONE), spec), 2)
        if ident is None:
            assert w["kind"] == "extreme-chain" and "ident" not in w
        else:
            assert (w["kind"], w["ident"]) == ("smooth-chain", ident)

def _window_charges(cut, span):
    out = []
    for rk in range(-span, span + 1):
        for deg in range(-span, span + 1):
            if (rk, deg) != (0, 0) and in_cut_window(cut, (-deg, rk)):
                out.append(Charge(rk, deg))
    return out


def _brute_partner(w, cut, span=40):
    found = []
    for x in range(-span, span + 1):
        for y in range(-span, span + 1):
            f = (x, y)
            if w[0] * y - w[1] * x != 1:
                continue
            d = (w[0] - x, w[1] - y)
            if in_cut_window(cut, f) and in_cut_window(cut, d):
                found.append(f)
    return found


class TestEpiChain:
    def test_golden_cut_is_fibonacci(self):
        chain = tstruct.epi_chain(Charge(1, 0), GOLDEN, 10)
        fib = [1, 1]
        while len(fib) < 22:
            fib.append(fib[-1] + fib[-2])
        expect = [Charge(fib[2 * i], fib[2 * i + 1]) for i in range(10)]
        assert chain == expect

    def test_golden_cut_pairings_and_phases(self):
        chain = [Charge(1, 0)] + tstruct.epi_chain(Charge(1, 0), GOLDEN, 10)
        upper = GOLDEN.shifted(1)
        for a, b in zip(chain, chain[1:]):
            assert euler_form(a, b) == 1
        phases = [reduced_phase(c) for c in chain]
        for p, q in zip(phases, phases[1:]):
            assert p < q
        for p in phases:
            assert cut_cmp(GOLDEN, p) == -1
            assert cut_cmp(upper, p) == 1
        # each step's difference class lies in the open strip as well
        for a, b in zip(chain, chain[1:]):
            d = b - a
            assert in_cut_window(GOLDEN, (-d.deg, d.rk)) or in_cut_window(
                GOLDEN, (d.deg, -d.rk)
            )

    def test_partner_matches_brute_force(self):
        rng = random.Random(11)
        cuts = [GOLDEN, SurdCut(0, 1, 1, 2), SurdCut(-1, 1, 3, 7, strip=1)]
        for cut in cuts:
            pool = [
                c
                for c in _window_charges(cut, 6)
                if math.gcd(abs(c.rk), abs(c.deg)) == 1
            ]
            rng.shuffle(pool)
            for c in pool[:8]:
                w = tstruct._window_vector(c, cut)
                found = _brute_partner(w, cut)
                m = tstruct.epi_chain(c, cut, 1)[0]
                f = (-m.deg, m.rk)
                # the partner is unique; the exhaustive search agrees
                assert found == [f]

    @pytest.mark.parametrize("cut", [GOLDEN, SurdCut(-5, 3, 4, 11)], ids=["golden", "sqrt11"])
    def test_length_1000_chain(self, cut):
        w = tstruct._window_vector(Charge(1, 0), cut)
        chain = [Charge(w[1], -w[0])] + tstruct.epi_chain(Charge(1, 0), cut, 1000)
        assert len(chain) == 1001
        for a, b in zip(chain, chain[1:]):
            assert euler_form(a, b) == 1
            d = b - a
            assert in_cut_window(cut, (-d.deg, d.rk)) or in_cut_window(
                cut, (d.deg, -d.rk)
            )
        for c in chain:
            assert in_cut_window(cut, (-c.deg, c.rk))

    @pytest.mark.parametrize("bits", [8, 64, 512, 4096])
    def test_window_vector_matches_two_window_tests(self, bits):
        # one surd sign picks what two window tests picked; charges hug the
        # cut line c*x = -(a + b*sqrt(D))*y, where the sign takes exact work
        rng = random.Random(bits)
        for _ in range(60):
            a, c = rng.randint(-9, 9), rng.randint(1, 9)
            b, d = rng.choice((-3, -1, 1, 2)), rng.choice((2, 3, 5, 7, 11))
            cut = SurdCut(a, b, c, d, strip=rng.randint(-2, 2))
            y = rng.getrandbits(bits) * rng.choice((1, -1))
            root = math.isqrt(b * b * d * y * y)
            x = -(a * y + (root if b * y > 0 else -root)) // c + rng.randint(-1, 1)
            if (x, y) == (0, 0):
                x = 1
            charge = Charge(y, -x)
            w, v = (-charge.deg, charge.rk), (charge.deg, -charge.rk)
            assert in_cut_window(cut, w) != in_cut_window(cut, v)
            want = w if in_cut_window(cut, w) else v
            assert tstruct._window_vector(charge, cut) == want
            with pytest.raises(DomainError, match="^charge phase is not inside the open cut strip$"):
                tstruct._window_vector(Charge(0, 0), cut)

    def test_seed_enters_up_to_shift(self):
        # the open strip is a half-plane on charges, so exactly one of a
        # nonzero class and its negation represents a phase inside it
        cut = SurdCut(0, 1, 1, 2)
        assert tstruct._window_vector(Charge(1, 0), cut) == (0, -1)
        chain = tstruct.epi_chain(Charge(1, 0), cut, 3)
        assert len(chain) == 3

    def test_rejects_zero_seed(self):
        with pytest.raises(DomainError):
            tstruct.epi_chain(Charge(0, 0), GOLDEN, 2)

    def test_rejects_imprimitive(self):
        with pytest.raises(DomainError):
            tstruct.epi_chain(Charge(2, 0), GOLDEN, 2)

    def test_rejects_bad_length(self):
        with pytest.raises(DomainError):
            tstruct.epi_chain(Charge(1, 0), GOLDEN, 0)


BENCH_SURDS = ((1, 1, 2, 5), (0, 1, 1, 2), (0, 1, 1, 3), (-5, 3, 4, 11))


class TestEpiChainAgainstGcdReference:
    """epi_chain walks digits from one extended gcd; the reference takes an
    extended gcd every step."""

    @pytest.mark.parametrize("surd", BENCH_SURDS, ids=["golden", "sqrt2", "sqrt3", "sqrt11"])
    def test_matches_reference(self, surd):
        rng = random.Random(str(surd))
        for strip in (-1, 0, 1):
            cut = SurdCut(*surd, strip=strip)
            seeds = [
                c
                for c in _window_charges(cut, 4)
                if math.gcd(c.rk, c.deg) == 1
            ]
            for c in rng.sample(seeds, 3):
                n = rng.choice((8, 64, 300))
                got = [(m.rk, m.deg) for m in tstruct.epi_chain(c, cut, n)]
                assert got == gcd_epi_chain(c, cut, n)
        cut = SurdCut(*surd, strip=rng.choice((-1, 0, 1)))
        got = [(m.rk, m.deg) for m in tstruct.epi_chain(Charge(1, 0), cut, 1000)]
        assert got == gcd_epi_chain(Charge(1, 0), cut, 1000)

    def test_length_ten_thousand_on_golden_cut(self):
        w = tstruct._window_vector(Charge(1, 0), GOLDEN)
        chain = [Charge(w[1], -w[0])] + tstruct.epi_chain(Charge(1, 0), GOLDEN, 10**4)
        assert len(chain) == 10**4 + 1
        for a, b in zip(chain, chain[1:]):
            assert euler_form(a, b) == 1
            d = b - a
            assert in_cut_window(GOLDEN, (-d.deg, d.rk)) or in_cut_window(
                GOLDEN, (d.deg, -d.rk)
            )
        assert all(in_cut_window(GOLDEN, (-c.deg, c.rk)) for c in chain)


def _chain_or_error(build, e, cut, length):
    try:
        return build(e, cut, length)
    except DomainError as exc:
        return f"DomainError: {exc}"


class TestDigitWalkAgainstStepwise:
    """The digit walk returns the members, and raises the errors, of the
    chain solved one unimodular partner at a time.  Strips -2..2 and every
    seed with |rk|, |deg| <= 4 include zero and imprimitive seeds, and walks
    through states with R < 0."""

    @pytest.mark.parametrize("surd", BENCH_SURDS, ids=["golden", "sqrt2", "sqrt3", "sqrt11"])
    def test_grid(self, surd):
        seeds = [Charge(rk, deg) for rk in range(-4, 5) for deg in range(-4, 5)]
        for strip in range(-2, 3):
            cut = SurdCut(*surd, strip=strip)
            for e in seeds:
                for n in (1, 2, 300):
                    got = _chain_or_error(tstruct.epi_chain, e, cut, n)
                    assert got == _chain_or_error(stepwise_epi_chain, e, cut, n), (e, cut, n)

    def test_isqrt_calls_do_not_grow_with_length(self, monkeypatch):
        class CountingMath:
            def __init__(self):
                self.isqrt_calls = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def isqrt(self, n):
                self.isqrt_calls += 1
                return math.isqrt(n)

        counts = []
        for n in (10, 5000):
            proxy = CountingMath()
            monkeypatch.setattr(tstruct, "math", proxy)
            assert len(tstruct.epi_chain(Charge(1, 0), GOLDEN, n)) == n
            counts.append(proxy.isqrt_calls)
        assert counts[0] == counts[1]


# the four object-small surds and the golden-test cuts: golden, sqrt 2,
# sqrt 3, (-5 + 3 sqrt 11)/4 and sqrt 34, of state periods 1, 2, 2, 10, 14
PERIOD_SURDS = BENCH_SURDS + ((0, 1, 1, 34),)


def _moebius_image(rng, surd, bits):
    """(a, b, c, D) of the slope (alpha*x + beta)/(gamma*x + delta) for the
    slope x = (a + b*sqrt(D))/c and a random matrix of determinant 1."""
    a, b, c, d = surd
    while True:
        alpha, gamma = rng.randint(1, 2**bits), rng.randint(-(2**bits), 2**bits)
        if math.gcd(alpha, gamma) == 1:
            break
    delta = pow(alpha, -1, abs(gamma)) if abs(gamma) > 1 else 1
    beta = (alpha * delta - 1) // gamma if gamma else 0
    assert alpha * delta - beta * gamma == 1
    # x' = (a1 + b1*sqrt(D))/(a2 + b2*sqrt(D)), rationalised by the conjugate
    a1, b1, a2, b2 = alpha * a + beta * c, alpha * b, gamma * a + delta * c, gamma * b
    num, root, den = a1 * a2 - b1 * b2 * d, b1 * a2 - a1 * b2, a2 * a2 - b2 * b2 * d
    if den < 0:
        num, root, den = -num, -root, -den
    g = math.gcd(num, root, den)
    return num // g, root // g, den // g, d


class TestPeriodReplay:
    """epi_chain window-tests no state and, once a (P, R) state repeats,
    replays the digit period; the members and errors are those of the walk
    that tests every member."""

    @pytest.mark.parametrize(
        "surd", PERIOD_SURDS, ids=["golden", "sqrt2", "sqrt3", "sqrt11", "sqrt34"]
    )
    def test_every_length_through_two_periods(self, surd):
        rng = random.Random(str(surd))
        for strip in (-1, 0, 1):
            cut = SurdCut(*surd, strip=strip)
            seeds = [c for c in _window_charges(cut, 4) if math.gcd(c.rk, c.deg) == 1]
            for e in [Charge(1, 0)] + rng.sample(seeds, 3):
                pre, per = epi_state_period(e, cut)
                for n in range(1, pre + 2 * per + 3):
                    assert tstruct.epi_chain(e, cut, n) == reference_epi_chain(e, cut, n)
        cut = SurdCut(*surd, strip=rng.choice((-1, 0, 1)))
        assert tstruct.epi_chain(Charge(1, 0), cut, 10**4) == reference_epi_chain(
            Charge(1, 0), cut, 10**4
        )

    @pytest.mark.parametrize(
        "surd", PERIOD_SURDS, ids=["golden", "sqrt2", "sqrt3", "sqrt11", "sqrt34"]
    )
    def test_length_ten_thousand_in_strips_minus_two_to_two(self, surd):
        rng = random.Random(f"{surd}:long")
        for strip in range(-2, 3):
            cut = SurdCut(*surd, strip=strip)
            seeds = [c for c in _window_charges(cut, 4) if math.gcd(c.rk, c.deg) == 1]
            for e in (Charge(1, 0), rng.choice(seeds)):
                assert tstruct.epi_chain(e, cut, 10**4) == reference_epi_chain(e, cut, 10**4)

    @pytest.mark.parametrize("bits", [8, 16, 64])
    def test_random_cuts(self, bits):
        # random slopes, whose periods are mostly out of reach, and images
        # of the period surds under random SL(2, Z) maps with entries of up
        # to `bits` bits, which reach their base's cycle after a preperiod
        rng = random.Random(bits)
        replayed = negative = 0
        for i in range(40):
            if i % 2:
                d = rng.randint(2, 2**bits)
                d += math.isqrt(d) ** 2 == d
                a, b, c = (rng.randint(-(2**bits), 2**bits), rng.choice((-1, 1)) * rng.randint(1, 2**bits),
                           rng.randint(1, 2**bits))
            else:
                a, b, c, d = _moebius_image(rng, rng.choice(PERIOD_SURDS), bits)
            cut = SurdCut(a, b, c, d, strip=rng.randint(-2, 2))
            e = Charge(rng.randint(-9, 9), rng.randint(-9, 9))
            found = None
            if e.rk or e.deg:
                found = epi_state_period(e, cut, cap=4000)
            n = rng.choice((1, 7, 60)) if found is None else sum(found) + found[1] + 2
            replayed += found is not None
            got = outcome(tstruct.epi_chain, e, cut, n)
            assert got == outcome(reference_epi_chain, e, cut, n), (e, cut, n)
            # a state with R < 0 is the one branch where the floor adds 1;
            # the reference window-tests the members that walk reaches
            if isinstance(got, list):
                negative += any(r < 0 for _, r in epi_states(e, cut, n))
        assert replayed >= 15
        assert negative >= 5

    def test_errors_match(self):
        cut = SurdCut(0, 1, 1, 34)
        for e, n in ((Charge(0, 0), 3), (Charge(2, 0), 3), (Charge(1, 0), 0),
                     (Charge(1, 0), -5), (Charge(0, 0), 0)):
            got = outcome(tstruct.epi_chain, e, cut, n)
            assert got == outcome(reference_epi_chain, e, cut, n)
            assert got[0] is DomainError

    @pytest.mark.parametrize("length", [2.5, 3.0, Fraction(5, 2), "3", None])
    def test_non_int_length_raises_type_error(self, length):
        got = outcome(tstruct.epi_chain, Charge(1, 0), SurdCut(0, 1, 1, 34), length)
        assert got == outcome(reference_epi_chain, Charge(1, 0), SurdCut(0, 1, 1, 34), length)
        assert got[0] is TypeError

    def test_window_tests_stop_at_the_first_repeat(self, monkeypatch):
        # a walk that tests every member would make 2 * 10**4 sign calls
        cut, e = SurdCut(0, 1, 1, 34), Charge(1, 0)
        pre, per = epi_state_period(e, cut)
        assert (pre, per) == (1, 14)
        calls = []

        def counting_sign(a, b, d):
            calls.append(1)
            return _surd_sign(a, b, d)

        monkeypatch.setattr(tstruct, "_surd_sign", counting_sign)
        chain = tstruct.epi_chain(e, cut, 10**4)
        monkeypatch.undo()
        assert chain == reference_epi_chain(e, cut, 10**4)
        # one sign picks the seed's window vector; the exact floor needs no
        # window test on any state, repeated or not
        assert len(calls) == 1
