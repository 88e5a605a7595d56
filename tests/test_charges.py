import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from hnlab import autoeq, lifts, multicurve, objects, serialize, tstruct
from hnlab.charges import (
    Charge,
    DomainError,
    Phase,
    PlaneVector,
    RationalCut,
    SurdCut,
    _rational,
    central_charge,
    cross,
    cut_cmp,
    euler_form,
    mass_squared,
    normalize_direction,
    reduced_phase,
    slope,
)
from conftest import (
    fraction_cut_cmp,
    outcome,
    random_charge,
    random_phase,
    random_run_word,
    reference_from_value,
)

charges = st.builds(
    Charge, st.integers(-50, 50), st.integers(-50, 50)
).filter(lambda c: not c.is_zero())


class TestSlope:
    def test_line_bundle(self):
        assert slope(Charge(1, 0)) == 0

    def test_torsion(self):
        assert slope(Charge(0, 5)) is None

    def test_fraction(self):
        assert slope(Charge(2, 3)) == Fraction(3, 2)

    def test_zero_rejected(self):
        with pytest.raises(DomainError, match="slope undefined on zero class"):
            slope(Charge(0, 0))


class TestCentralCharge:
    def test_line_bundle_is_i(self):
        assert central_charge(Charge(1, 0)) == PlaneVector(0, 1)

    def test_point_is_minus_one(self):
        assert central_charge(Charge(0, 1)) == PlaneVector(-1, 0)

    def test_zero(self):
        assert central_charge(Charge(0, 0)) == PlaneVector(0, 0)


class TestReducedPhase:
    def test_structure_sheaf_half(self):
        p = reduced_phase(Charge(1, 0))
        assert p == Phase((0, 1), 0)
        assert p.approx() == 0.5

    def test_torsion_one(self):
        p = reduced_phase(Charge(0, 3))
        assert p == Phase((-1, 0), 0)
        assert p.approx() == 1.0

    def test_quarter(self):
        assert reduced_phase(Charge(1, -1)) == Phase((1, 1), 0)

    def test_zero_rejected(self):
        with pytest.raises(DomainError, match="^phase undefined on zero class$"):
            reduced_phase(Charge(0, 0))

    def test_lower_half_gets_negative_strip(self):
        p = reduced_phase(Charge(-1, 0))
        assert p.shift == -1
        assert p.approx() == -0.5

    def test_negation_raises_by_one(self, rng):
        for _ in range(200):
            c = Charge(rng.randint(-9, 9), rng.randint(-9, 9))
            if c.is_zero():
                continue
            p, q = reduced_phase(c), reduced_phase(-c)
            assert abs(p.approx() - q.approx()) == pytest.approx(1.0)

    def test_phase_charge_round_trip(self, rng):
        for _ in range(200):
            p = reduced_phase(
                Charge(rng.randint(-9, 9), rng.randint(-9, 9) or 1),
                extra_shift=rng.randint(-2, 2),
            )
            k = rng.randint(1, 4)
            c = p.charge(k)
            q = reduced_phase(c)
            assert q.dir == p.dir
            assert (p.shift - q.shift) % 2 == 0


class TestPhaseOrder:
    def test_examples(self):
        assert Phase((0, 1), 0).cmp(Phase((-1, 0), 0)) < 0
        p = Phase((2, 3), 1)
        assert p.cmp(p) == 0
        assert Phase((1, 1), 1).cmp(Phase((-1, 0), 0)) > 0

    def test_agrees_with_atan2(self, rng):
        pts = []
        for _ in range(300):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            if (x, y) == (0, 0):
                continue
            pts.append(reduced_phase(Charge(y, -x), extra_shift=rng.randint(-2, 2)))
        for p in pts:
            for q in pts:
                c = p.cmp(q)
                fp, fq = p.approx(), q.approx()
                if abs(fp - fq) > 1e-12:
                    assert c == (-1 if fp < fq else 1)
                else:
                    assert c == 0

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
    def test_cross_sign_is_order_in_strip(self, x1, y1, x2, y2):
        if (x1, y1) == (0, 0) or (x2, y2) == (0, 0):
            return
        p = reduced_phase(Charge(y1, -x1))
        q = reduced_phase(Charge(y2, -x2))
        if p.shift != q.shift:
            return
        cr = p.dir[0] * q.dir[1] - p.dir[1] * q.dir[0]
        assert (cr > 0) == (p.cmp(q) < 0)

    @pytest.mark.parametrize("span", [6, 2**256])
    def test_offset_compares_with_the_shifted_phase(self, rng, span):
        # p.cmp(q, n) is p.cmp(q + n) without building q + n; equal
        # directions (q a shifted copy of p) meet at n = p.shift - q.shift
        for _ in range(3000):
            p = random_phase(rng, span)
            q = p + rng.randint(-3, 3) if rng.random() < 0.3 else random_phase(rng, span)
            for n in range(-3, 4):
                t, k = q.shift + n, cross(p.dir, q.dir)
                expected = (p.shift > t) - (p.shift < t) if p.shift != t else (k < 0) - (k > 0)
                assert p.cmp(q, n) == p.cmp(q + n) == expected

    def test_from_value(self):
        assert Phase.from_value(Fraction(1, 2)) == Phase((0, 1), 0)
        assert Phase.from_value(Fraction(9, 4)) == Phase((1, 1), 2)
        assert Phase.from_value(1) == Phase((-1, 0), 0)
        assert Phase.from_value(0) == Phase((-1, 0), -1)
        with pytest.raises(DomainError):
            Phase.from_value(Fraction(1, 3))

    def test_bad_direction_rejected(self):
        with pytest.raises(DomainError):
            Phase((2, 2), 0)
        with pytest.raises(DomainError):
            Phase((0, -1), 0)


def _same_from_value(v):
    """from_value(v) and the Fraction-keyed reference give the same phase,
    shift type included, or the same exception type and text."""
    got, want = outcome(Phase.from_value, v), outcome(reference_from_value, v)
    assert got == want and repr(got) == repr(want), v
    return got


class TestFromValue:
    @pytest.mark.parametrize("kind", [int, Fraction, str, float])
    def test_every_quarter_value_for_shifts_up_to_1000(self, kind):
        for q in range(-4000, 4004):
            v = Fraction(q, 4)
            if kind is int and v.denominator != 1:
                continue
            v = kind(v) if kind is not str else f"{q}/4"
            got = _same_from_value(v)
            if kind is float:  # a float holds a binary value, and is refused
                assert got == (DomainError, f"bad rational {v!r}")
                continue
            assert type(got) is Phase and 4 * got.shift < q <= 4 * got.shift + 4
            _passes_public_checks(got)

    def test_256_bit_numerators(self, rng):
        for _ in range(500):
            n = rng.randrange(-2**256, 2**256)
            for v in (n, Fraction(n, 2), Fraction(n, 4), f"{n}/4", f"{2 * n}/8"):
                _passes_public_checks(_same_from_value(v))
            v = float(n >> 200) * 2.0 ** rng.randint(-2, 200)
            assert _same_from_value(v) == (DomainError, f"bad rational {v!r}")

    @pytest.mark.parametrize("den", [3, 5, 8])
    def test_non_quarter_values_raise_the_same_text(self, rng, den):
        for k in [*range(-200, 200), *(rng.randrange(-2**256, 2**256) for _ in range(200))]:
            for v in (Fraction(k, den), f"{k}/{den}", float(Fraction(k % 1000, den))):
                got = _same_from_value(v)
                if isinstance(v, float):
                    assert got == (DomainError, f"bad rational {v!r}")
                elif Fraction(v) * 4 % 1:
                    assert got[0] is DomainError and "not the phase of a lattice ray" in got[1]

    def test_malformed_and_inexact_inputs(self):
        # unreadable strings, non-finite floats, a float's binary value, a bool
        for v in ("x", "1/0", float("nan"), float("inf"), 0.1, "-7/12", True):
            _same_from_value(v)

    def test_int_and_fraction_build_no_fraction(self, fraction_calls):
        values = [7, -3, 2**300, Fraction(9, 4), Fraction(-2**300 - 1, 4), Fraction(1, 3)]
        fraction_calls.clear()
        for v in values[:-1]:
            Phase.from_value(v)
        with pytest.raises(DomainError):
            Phase.from_value(values[-1])
        assert fraction_calls["new"] == 0

    def test_value_past_the_interpreter_digit_limit(self):
        # str() of an int past the interpreter's digit limit (4,300 by default)
        # raises ValueError, so the message leaves such a value out
        for v in (Fraction(1, 3 * 10**5000), Fraction(10**5000 + 1, 3)):
            with pytest.raises(DomainError, match="^value( .+)? is not the phase of a lattice ray$"):
                Phase.from_value(v)
        # a long value that prints keeps today's text
        _same_from_value(f"1/{3 * 10**4000}")


_BUNDLE = multicurve.example_bundle()
# every library function that reads a rational argument, reading v
_READERS = {
    "from_value": Phase.from_value,
    "Lift": lambda v: lifts.Lift([[v, 0], [0, 1]], Phase((0, 1), 0)),
    "from_matrix": lambda v: lifts.from_matrix([[1, 0], [v, 1]]),
    "is_semistable": lambda v: multicurve.is_semistable(_BUNDLE, v, 1),
    "grid_shape": lambda v: multicurve.grid_shape(1, v, 1),
    "wall_scan": lambda v: multicurve.wall_scan(_BUNDLE, v, 1, 1),
    "sd_chain": lambda v: objects.sd_chain(["1/3", v]),
}


class TestUnreadableRefused:
    """charges._rational turns Fraction's ValueError (past the 4,300-digit
    limit, or malformed), ZeroDivisionError, TypeError and OverflowError
    into one DomainError that names the value, for every reader."""

    @pytest.mark.parametrize("value", ["1" * 5000, "1/0", None, "x", float("inf")])
    @pytest.mark.parametrize("reader", list(_READERS))
    def test_every_reader_refuses_with_a_domain_error(self, reader, value):
        assert outcome(_READERS[reader], value) == (DomainError, f"bad rational {value!r}")


class TestFloatAndBoolRefused:
    """charges._rational refuses a float, which holds a binary value rather
    than the one written, and a bool, as serialize.decode_fraction does, so
    no library reader takes 0.1 as 3602879701896397/36028797018963968 or
    True as 1."""

    @pytest.mark.parametrize("value", [0.1, 0.5, 2.0, True, False])
    @pytest.mark.parametrize("reader", list(_READERS))
    def test_every_reader_refuses(self, reader, value):
        assert outcome(_READERS[reader], value) == (DomainError, f"bad rational {value!r}")

    def test_whole_calls(self):
        assert outcome(lifts.from_matrix, [[0.1, 0], [0, 1]]) == (DomainError, "bad rational 0.1")
        assert outcome(multicurve.grid_shape, True, 2, 1) == (DomainError, "bad rational True")


class TestExponentRefused:
    """charges._rational refuses a string with an exponent before Fraction
    would build its integer, so every reader refuses it at once."""

    @pytest.mark.parametrize("value", ["1e-1000000", "1E1000000"])
    @pytest.mark.parametrize("reader", list(_READERS))
    def test_every_reader_refuses_at_once(self, reader, value):
        start = time.perf_counter()
        got = outcome(_READERS[reader], value)
        assert time.perf_counter() - start < 1
        assert got == (DomainError, f'bad rational {value!r}: write it as "p/q"')

    @pytest.mark.parametrize("value", ["1e3", " 1E2 ", "e", "one", "1/0e"])
    def test_any_e_in_a_string(self, value):
        with pytest.raises(DomainError, match=r'^bad rational .*: write it as "p/q"$'):
            _rational(value)
        with pytest.raises(DomainError, match=r'^bad rational .*: write it as "p/q"$'):
            _rational(type("Text", (str,), {})(value))

    def test_other_values_read_as_before(self):
        for v in (7, -2**300, Fraction(-5, 3)):
            assert _rational(v) is v
        for v in ("-2.5", " 7/4 ", "3"):
            got = _rational(v)
            assert type(got) is Fraction and got == Fraction(v)
        # a float holds a binary value and a bool is no number: both refused
        for v in (0.5, 0.1, -2.0, True, False):
            assert outcome(_rational, v) == (DomainError, f"bad rational {v!r}")
        # what Fraction cannot read is refused as a DomainError naming it
        for v in ("1/0", "x", None, float("nan"), float("inf")):
            assert outcome(Fraction, v)[0] in (ValueError, ZeroDivisionError, TypeError, OverflowError)
            assert outcome(_rational, v) == (DomainError, f"bad rational {v!r}")


_BIG = 10**5000  # str() and repr() of it raise ValueError past the 4,300-digit limit


def _object_with_label(v):
    return {"pieces": [{"phase": {"dir": [0, 1]}, "jh": [[v, 1]]}]}


# every library message that shows a refused value: the call on v, its text
# for v = 3, and its text for v = _BIG, which leaves the value out
_SHOWN = {
    "not primitive": (lambda v: Phase((2 * v, 2)),
                      "direction (6, 2) is not primitive",
                      "direction is not primitive"),
    "outside sector": (lambda v: Phase((v, -1)),
                       "direction (3, -1) outside canonical sector",
                       "direction outside canonical sector"),
    "runs": (lambda v: autoeq.runs([v]),
             "unknown generator letter 3",
             "unknown generator letter"),
    "normal_form": (lambda v: autoeq.normal_form([("TK", 1), v]),
                    "unknown generator letter 3",
                    "unknown generator letter"),
    "label": (lambda v: objects.StableLabel(v),
              "unknown label kind 3",
              "unknown label kind"),
    "smooth mode": (lambda v: tstruct.StableSubsetSpec(False, v),
                    "unknown smooth mode 3",
                    "unknown smooth mode"),
    "cut kind": (lambda v: serialize.decode_cut({"kind": v}),
                 "$.kind: unknown cut kind 3",
                 "$.kind: unknown cut kind"),
    "jh label": (lambda v: serialize.decode_object(_object_with_label(v)),
                 "$.pieces[0].jh[0]: unknown label kind 3",
                 "$.pieces[0].jh[0]: unknown label kind"),
    "rational": (lambda v: serialize.decode_fraction([v]),
                 "bad rational [3]",
                 "bad rational"),
}


class TestValuePastTheDigitLimit:
    """A refused value too long to print is left out of its message, which
    keeps today's text wherever the value prints."""

    @pytest.mark.parametrize("case", list(_SHOWN))
    def test_message(self, case):
        call, shown, bare = _SHOWN[case]
        assert outcome(call, 3) == (DomainError, shown)
        assert outcome(call, _BIG) == (DomainError, bare)

    def test_long_integer_reads_as_a_rational(self):
        assert serialize.decode_fraction(_BIG) == _BIG


class TestEulerForm:
    def test_unit(self):
        assert euler_form(Charge(1, 0), Charge(0, 1)) == 1

    def test_antisymmetric(self):
        c = Charge(3, -7)
        assert euler_form(c, c) == 0

    def test_direct_value(self):
        assert euler_form(Charge(2, 3), Charge(1, 1)) == -1

    @given(charges, charges)
    def test_imaginary_part_of_hermitian_product(self, a, b):
        za, zb = central_charge(a), central_charge(b)
        # Im(conj(za) * zb)
        im = za.x * zb.y - za.y * zb.x
        assert euler_form(a, b) == im


class TestNormalizeDirection:
    def test_zero_vector_refused(self):
        with pytest.raises(DomainError, match="^zero vector has no direction$"):
            normalize_direction((0, 0))


class TestMass:
    def test_zero_iff_zero(self):
        assert mass_squared(Charge(0, 0)) == 0
        assert mass_squared(Charge(2, -3)) == 13


class TestSurdCut:
    def test_validation(self):
        with pytest.raises(DomainError):
            SurdCut(1, 1, 1, 4)  # square radicand
        with pytest.raises(DomainError):
            SurdCut(1, 0, 1, 2)  # rational
        with pytest.raises(DomainError):
            SurdCut(1, 1, 0, 2)  # bad denominator

    def test_sqrt2_vs_slope_one(self):
        cut = SurdCut(0, 1, 1, 2)
        p = reduced_phase(Charge(1, 1))
        # slope sqrt(2) > 1, phases increase with slope inside a strip
        assert cut_cmp(cut, p) == 1

    def test_sqrt2_below_torsion(self):
        cut = SurdCut(0, 1, 1, 2)
        assert cut_cmp(cut, reduced_phase(Charge(0, 1))) == -1

    def test_rational_cut_equality(self):
        cut = RationalCut(Phase((-1, 0), 0))
        assert cut_cmp(cut, reduced_phase(Charge(0, 7))) == 0

    def test_strips_dominate(self):
        cut = SurdCut(0, 1, 1, 2, strip=3)
        assert cut_cmp(cut, Phase((0, 1), 0)) == 1
        assert cut_cmp(cut, Phase((0, 1), 5)) == -1

    def test_against_mpmath_oracle(self):
        rng = random.Random(7)
        mpmath.mp.dps = 60
        for _ in range(1000):
            a = rng.randint(-9, 9)
            b = rng.choice([i for i in range(-5, 6) if i])
            c = rng.randint(1, 9)
            d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
            strip = rng.randint(-2, 2)
            cut = SurdCut(a, b, c, d, strip)
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            if (x, y) == (0, 0):
                continue
            p = reduced_phase(Charge(y, -x), extra_shift=rng.randint(-2, 2))
            val_cut = strip + 1 - mpmath.atan2(
                1, (a + b * mpmath.sqrt(d)) / c
            ) / mpmath.pi
            val_p = mpmath.atan2(p.dir[1], p.dir[0]) / mpmath.pi
            if val_p <= 0:
                val_p += 2
            val_p += p.shift
            expected = -1 if val_cut < val_p else 1
            assert cut_cmp(cut, p) == expected

    def test_surd_comparisons_transitive(self):
        cut = SurdCut(1, 1, 2, 5, strip=0)
        rng = random.Random(3)
        ps = []
        for _ in range(40):
            x, y = rng.randint(-6, 6), rng.randint(-6, 6)
            if (x, y) != (0, 0):
                ps.append(reduced_phase(Charge(y, -x)))
        below = [p for p in ps if cut_cmp(cut, p) == 1]
        above = [p for p in ps if cut_cmp(cut, p) == -1]
        for p in below:
            for q in above:
                assert p.cmp(q) < 0

    def test_approx_matches_slope(self):
        cut = SurdCut(0, 1, 1, 2)
        r = cut.approx()
        assert 0 < r < 1
        assert -1 / math.tan(math.pi * r) == pytest.approx(math.sqrt(2))


class TestSurdCutAt256Bits:
    def test_against_fraction_reference(self):
        # directions whose slope sits within 1/y of the cut test the sign
        # test where the two sides agree to about 256 bits
        rng = random.Random(256)
        for _ in range(3000):
            bits = rng.choice((8, 64, 256))
            a = rng.randint(-(2**bits), 2**bits)
            b = rng.choice((-1, 1)) * rng.randint(1, 2**bits)
            c = rng.randint(1, 2**bits)
            d = rng.choice((2, 3, 5, 7, 10**6 + 3, 2**127 - 1))
            cut = SurdCut(a, b, c, d, rng.randint(-2, 2))
            y = rng.randint(1, 2**256)
            root = math.isqrt(b * b * d * y * y)  # floor(|b| sqrt(d) y)
            near = (a * y + (root if b > 0 else -root - 1)) // c  # floor(s*y)
            x = -(near + rng.randint(-1, 2))
            g = math.gcd(x, y)
            p = Phase((x // g, y // g), cut.strip + rng.choice((0, 0, 0, -1, 1)))
            assert cut_cmp(cut, p) == fraction_cut_cmp(cut, p)
            torsion = Phase((-1, 0), cut.strip)
            assert cut_cmp(cut, torsion) == fraction_cut_cmp(cut, torsion) == -1


class TestCutOffset:
    def test_offset_moves_the_cut_down(self, rng):
        # cut - (p + k) = (cut - k) - p: an offset reads the cut moved down k strips
        for _ in range(300):
            rational = RationalCut(random_phase(rng))
            a, b, c, d = rng.choice(((1, 1, 2, 5), (0, 1, 1, 2), (-5, 3, 4, 11), (2, -1, 3, 7)))
            surd = SurdCut(a, b, c, d, rng.randint(-2, 2))
            for p in (random_phase(rng, shifts=3), rational.phase + rng.randint(-3, 3)):
                for k in range(-3, 4):
                    assert cut_cmp(rational, p, k) == cut_cmp(RationalCut(rational.phase - k), p)
                    assert cut_cmp(surd, p, k) == cut_cmp(surd.shifted(-k), p)
                    assert cut_cmp(surd, p, k) == fraction_cut_cmp(surd, p + k)


def _passes_public_checks(p):
    assert type(p) is Phase
    assert Phase(p.dir, p.shift) == p


class TestTrustedPhase:
    """Every phase built without the primitivity and sector checks passes
    them: integer shifts, reduced_phase, the run walk of autoeq, the anchor
    of lifts.from_matrix, lifts.lift_phase and the sd_chain ledger."""

    def test_every_site_at_256_bits(self, rng):
        big = 2**256
        for _ in range(300):
            p = random_phase(rng, span=big, shifts=big)
            n = rng.randint(-big, big)
            _passes_public_checks(p + n)
            _passes_public_checks(p - n)
            _passes_public_checks(reduced_phase(random_charge(rng, big), n))
            _passes_public_checks(autoeq.apply_to_phase(random_run_word(rng), p))
            while True:
                a, b, c, d = (rng.randint(-big, big) for _ in range(4))
                if a * d != b * c:
                    break
            rows = ((a, b), (c, d)) if a * d > b * c else ((c, d), (a, b))
            if rng.random() < 0.5:  # a positive scale keeps the determinant's sign
                q = rng.randint(1, big)
                rows = tuple(tuple(Fraction(e, q) for e in row) for row in rows)
            g = lifts.from_matrix(rows, rng.randint(-3, 3))
            _passes_public_checks(g.anchor)
            _passes_public_checks(lifts.lift_phase(g, p))
            _passes_public_checks(lifts.lift_phase(g, Phase((0, 1), n)))

    def test_sd_ledger(self, rng):
        for _ in range(100):
            slopes = sorted({Fraction(rng.randint(1, q - 1), q)
                             for q in (rng.randint(2, 60) for _ in range(20))})
            for piece in objects.sd_chain(slopes)[1].pieces:
                _passes_public_checks(piece.phase)

    def test_public_construction_still_checks(self):
        with pytest.raises(DomainError):
            Phase((2, 4), 0)
        with pytest.raises(DomainError):
            Phase((1, -1), 0)
