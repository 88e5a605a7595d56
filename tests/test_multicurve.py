from decimal import Decimal
from fractions import Fraction

import pytest

from hnlab import multicurve
from hnlab.charges import DomainError
from hnlab.multicurve import (
    DeclaredObject,
    MultiCharge,
    example_bundle,
    grid_shape,
    is_semistable,
    wall_scan,
    walls,
)
from conftest import (
    central_charge_ab,
    fraction_scan,
    fraction_verdict,
    outcome,
    reference_grid_shape,
    reference_is_semistable,
    reference_wall_scan,
)


class TestCharge:
    def test_addition(self):
        assert MultiCharge(1, 2, 3) + MultiCharge(4, 5, 6) == MultiCharge(5, 7, 9)

    def test_central_charge_linear(self):
        # a quotient's form is the cross product of central charges, which
        # are linear in the charge, so the form of u + v is the sum of theirs
        a, b = Fraction(2), Fraction(3)
        c, u, v = MultiCharge(2, 1, 1), MultiCharge(1, 1, 0), MultiCharge(0, 2, 1)
        obj = DeclaredObject(c, (u, v, u + v))
        fu, fv, fs = multicurve._forms(obj)
        assert fs == (fu[0] + fv[0], fu[1] + fv[1])
        w = central_charge_ab(c, a, b)
        for q, (alpha, beta) in zip(obj.quotients, (fu, fv, fs)):
            x = central_charge_ab(q, a, b)
            assert alpha * a + beta * b == w[0] * x[1] - w[1] * x[0]

    def test_positive_parameters_required(self):
        for a, b in ((0, 1), (1, -2), (Fraction(-1, 2), 1), ("0/3", "1/2")):
            with pytest.raises(DomainError, match="^parameters must be positive$"):
                is_semistable(example_bundle(), a, b)

    def test_quotient_validation(self):
        with pytest.raises(DomainError):
            DeclaredObject(MultiCharge(1, 1, 1), (MultiCharge(0, 0, 0),))
        with pytest.raises(DomainError):
            DeclaredObject(MultiCharge(1, 1, 1), (MultiCharge(1, 1, 1),))


class TestVerdicts:
    def test_three_regions(self):
        obj = example_bundle()
        assert is_semistable(obj, 1, 2) == "Stable"
        assert is_semistable(obj, 1, 1) == "StrictlySemistable"
        assert is_semistable(obj, 2, 1) == "Unstable"

    def test_fractional_parameters(self):
        obj = example_bundle()
        assert is_semistable(obj, Fraction(99, 100), 1) == "Stable"
        assert is_semistable(obj, Fraction(101, 100), 1) == "Unstable"

    def test_zero_charge_rejected(self):
        bad = DeclaredObject(MultiCharge(0, 0, 0), ())
        with pytest.raises(DomainError):
            is_semistable(bad, 1, 1)

    def test_no_quotients_always_stable(self):
        obj = DeclaredObject(MultiCharge(5, 2, 3), ())
        assert is_semistable(obj, 7, Fraction(1, 3)) == "Stable"


class TestWalls:
    def test_example_has_one_wall(self):
        ws = walls(example_bundle())
        assert len(ws) == 1
        w = ws[0]
        assert w["quotient"] == MultiCharge(1, 1, 0)
        assert w["wall"] == (-1, 1, 0)
        assert w["unstable_side"] == "-"

    def test_wall_separates_verdicts(self):
        # on the wall -a + b = 0 the verdict is the tie, and each open side
        # matches the recorded unstable side
        obj = example_bundle()
        alpha, beta, _ = walls(obj)[0]["wall"]
        for a, b in [(1, 2), (1, 1), (2, 1), (3, 5), (5, 3)]:
            form = alpha * a + beta * b
            v = is_semistable(obj, a, b)
            if form < 0:
                assert v == "Unstable"
            elif form == 0:
                assert v == "StrictlySemistable"
            else:
                assert v == "Stable"

    def test_same_sign_quotient_gives_no_wall(self):
        obj = DeclaredObject(MultiCharge(2, 1, 1), (MultiCharge(3, 0, 1),))
        assert walls(obj) == []

    def test_proportional_quotient_gives_no_wall(self):
        obj = DeclaredObject(MultiCharge(2, 1, 1), (MultiCharge(4, 2, 2),))
        assert walls(obj) == []


class TestScan:
    def test_grid_shape_and_order(self):
        obj = example_bundle()
        grid = wall_scan(obj, 1, 3, 2)
        assert len(grid) == 2 and all(len(r) == 3 for r in grid)
        # top row is the largest b; the first column the smallest a
        assert grid[0] == [
            is_semistable(obj, 1, 2),
            is_semistable(obj, 2, 2),
            is_semistable(obj, 3, 2),
        ]
        assert grid[1][0] == is_semistable(obj, 1, 1)

    def test_fractional_step(self):
        obj = example_bundle()
        grid = wall_scan(obj, Fraction(1, 2), 1, 1)
        assert len(grid) == 2 and len(grid[0]) == 2
        assert grid[1][0] == is_semistable(obj, Fraction(1, 2), Fraction(1, 2))

    def test_deterministic(self):
        obj = example_bundle()
        assert wall_scan(obj, 1, 4, 4) == wall_scan(obj, 1, 4, 4)

    def test_consistent_with_wall(self):
        obj = example_bundle()
        alpha, beta, _ = walls(obj)[0]["wall"]
        step = Fraction(1, 3)
        grid = wall_scan(obj, step, 2, 2)
        b = Fraction(2)
        for row in grid:
            a = step
            for v in row:
                form = alpha * a + beta * b
                if form < 0:
                    assert v == "Unstable"
                elif form == 0:
                    assert v == "StrictlySemistable"
                else:
                    assert v == "Stable"
                a += step
            b -= step

    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            wall_scan(example_bundle(), 0, 1, 1)
        with pytest.raises(DomainError):
            wall_scan(example_bundle(), 1, -1, 1)

    def test_no_floats_anywhere(self):
        grid = wall_scan(example_bundle(), Fraction(1, 7), 1, 1)
        assert all(isinstance(v, str) for row in grid for v in row)
        assert all(type(n) is int for n in grid_shape(Fraction(1, 7), "1/3", 1))


def _random_declared(rng, span):
    def mc():
        while True:
            c = MultiCharge(*(rng.randint(-span, span) for _ in range(3)))
            if not c.is_zero():
                return c

    charge = mc()
    quotients = tuple(q for q in (mc() for _ in range(rng.randint(0, 4))) if q != charge)
    return DeclaredObject(charge, quotients)


class TestIntegerFormsAgainstFractions:
    """The integer forms agree with the per-cell Fraction cross products."""

    def test_verdicts_at_64_bits(self, rng):
        for _ in range(400):
            obj = _random_declared(rng, rng.choice((3, 2**64)))
            den_a, den_b = rng.choice((1, 7, 2**61 - 1)), rng.choice((1, 3, 10**18 + 9))
            a = Fraction(rng.randint(1, 5 * den_a), den_a)
            b = Fraction(rng.randint(1, 5 * den_b), den_b)
            assert is_semistable(obj, a, b) == fraction_verdict(obj, a, b)

    def test_scans_with_large_coprime_denominators(self, rng):
        p, q, r = 2**61 - 1, 10**18 + 9, 2**31 - 1
        for _ in range(60):
            obj = _random_declared(rng, rng.choice((2, 3, 2**64)))
            step = Fraction(rng.randint(1, 3) * p + rng.randint(1, p - 1), 2 * p)
            a_max = Fraction(rng.randint(1, 6 * q), q)
            b_max = Fraction(rng.randint(1, 6 * r), r)
            assert wall_scan(obj, step, a_max, b_max) == fraction_scan(
                obj, step, a_max, b_max
            )

    def test_scans_through_ties(self, rng):
        # small charges on a coarse grid put many cells exactly on a wall
        for _ in range(200):
            obj = _random_declared(rng, 2)
            step = Fraction(1, rng.randint(1, 4))
            a_max, b_max = Fraction(rng.randint(1, 9), 3), Fraction(rng.randint(1, 9), 2)
            assert wall_scan(obj, step, a_max, b_max) == fraction_scan(
                obj, step, a_max, b_max
            )
        grid = wall_scan(example_bundle(), Fraction(1, 2), 2, 2)
        assert grid == fraction_scan(example_bundle(), Fraction(1, 2), 2, 2)
        assert "StrictlySemistable" in sum(grid, [])

    def test_grid_without_columns(self):
        obj = example_bundle()
        step, a_max, b_max = Fraction(3, 2**61 - 1), Fraction(1, 2**62), Fraction(7, 2**61 - 1)
        assert wall_scan(obj, step, a_max, b_max) == [[], [], []]
        assert fraction_scan(obj, step, a_max, b_max) == [[], [], []]
        assert grid_shape(step, a_max, b_max) == (3, 0)

    def test_zero_charge_only_with_cells(self):
        zero = DeclaredObject(MultiCharge(0, 0, 0), (MultiCharge(1, 1, 0),))
        assert wall_scan(zero, 1, Fraction(1, 2), 2) == [[], []]
        with pytest.raises(DomainError, match="zero charge"):
            wall_scan(zero, 1, 1, 2)
        with pytest.raises(DomainError, match="positive"):
            wall_scan(zero, 1, 1, 0)

    def test_walls_are_the_verdict_forms(self, rng):
        for _ in range(200):
            obj = _random_declared(rng, 2**64)
            for w in walls(obj):
                alpha, beta, gamma = w["wall"]
                assert gamma == 0 and alpha * beta < 0
                # on the wall the quotient's charge is parallel to the object's
                a, b = abs(beta), abs(alpha)
                c = DeclaredObject(obj.charge, (w["quotient"],))
                assert fraction_verdict(c, a, b) == "StrictlySemistable"


def _parameter_forms(rng, x: Fraction):
    """x as an int where it is one, as a Fraction, as a "p/q" string with a
    common factor left in, and as a float or Decimal where exact."""
    k = rng.randint(2, 9)
    forms = [x, f"{x.numerator * k}/{x.denominator * k}", str(x)]
    if x.denominator == 1:
        forms.append(int(x))
    if x.denominator in (1, 2, 4, 8):
        forms += [float(x), Decimal(x.numerator) / x.denominator]
    return forms


class TestIntegerReadersAgainstReference:
    """is_semistable, grid_shape and wall_scan read each argument once as an
    integer pair; their results, exception types and messages equal those
    of the Fraction readers they replaced."""

    def test_verdicts(self, rng):
        for _ in range(300):
            obj = _random_declared(rng, rng.choice((3, 2**64)))
            den = rng.choice((1, 2, 3, 7, 2**61 - 1))
            a = Fraction(rng.randint(-2 * den, 5 * den), den)
            b = Fraction(rng.randint(-2, 6), rng.choice((1, 4, 10**18 + 9)))
            for x in _parameter_forms(rng, a):
                for y in _parameter_forms(rng, b):
                    assert outcome(is_semistable, obj, x, y) == outcome(
                        reference_is_semistable, obj, x, y
                    ), (obj, x, y)

    def test_grids(self, rng):
        steps = [Fraction(1, n) for n in range(1, 8)] + [Fraction(2, 3), Fraction(5, 7)]
        for _ in range(150):
            obj = _random_declared(rng, rng.choice((2, 3, 2**64)))
            step = rng.choice(steps)
            a_max = Fraction(rng.randint(-1, 6 * 4), 4)
            b_max = Fraction(rng.randint(-1, 6 * 3), 3)
            for args in ((step, a_max, b_max),
                         tuple(rng.choice(_parameter_forms(rng, x)) for x in (step, a_max, b_max))):
                assert outcome(grid_shape, *args) == outcome(reference_grid_shape, *args)
                assert outcome(wall_scan, obj, *args) == outcome(
                    reference_wall_scan, obj, *args
                ), (obj, args)

    def test_zero_charge_and_empty_grids(self):
        zero = DeclaredObject(MultiCharge(0, 0, 0), (MultiCharge(1, 1, 0),))
        for args in ((1, Fraction(1, 2), 2), (1, 1, 2), ("1/7", 6, 6), (1, 1, 0)):
            assert outcome(wall_scan, zero, *args) == outcome(reference_wall_scan, zero, *args)
        for a, b in ((1, 1), (0, 1)):
            assert outcome(is_semistable, zero, a, b) == outcome(
                reference_is_semistable, zero, a, b
            )

    def test_unreadable_arguments(self):
        obj = example_bundle()
        for bad in ("abc", "1/0", None, 1j, "", float("nan")):
            for args in ((bad, 1), (1, bad), (-1, bad), (bad, -1)):
                got = outcome(is_semistable, obj, *args)
                assert got == outcome(reference_is_semistable, obj, *args), args
                assert isinstance(got, tuple)
            for args in ((bad, 1, 1), (1, bad, 1), (1, 1, bad), (0, 1, bad)):
                assert outcome(grid_shape, *args) == outcome(reference_grid_shape, *args)
                assert outcome(wall_scan, obj, *args) == outcome(
                    reference_wall_scan, obj, *args
                ), args
