"""Acceptance gate: twelve criteria, one printed pass/fail line each."""

import contextlib
import itertools
import math
import pathlib
import random
from collections import deque
from fractions import Fraction

from hnlab import autoeq, lifts, multicurve, objects, render, serialize, stabcond, tstruct
from hnlab.charges import (
    Charge,
    Phase,
    RationalCut,
    SurdCut,
    cut_cmp,
    euler_form,
    reduced_phase,
)
from hnlab.objects import FormalObject, smooth, stable_piece
from hnlab.tstruct import StableSubsetSpec, TStructure
from conftest import cc, in_cut_window, random_object, random_word

GOLDEN = pathlib.Path(__file__).parent / "golden"
ONE = Phase((-1, 0), 0)


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {title}: FAIL")
        raise
    print(f"criterion {number:02d} {title}: PASS")


def test_01_generator_matrices():
    with criterion(1, "generator matrices"):
        # on (rk, -deg), the convention of an auto-equivalence's JSON matrix
        def kmatrix(word):
            return serialize.encode_autoeq(autoeq.normal_form(word))["matrix"]

        assert kmatrix(["TO"]) == [[1, 1], [0, 1]]
        assert kmatrix(["TK"]) == [[1, 0], [-1, 1]]
        assert kmatrix(["TK", "TO", "TK"]) == [[0, 1], [-1, 0]]
        assert kmatrix(["S"]) == [[-1, 0], [0, -1]]


def test_02_phase_rules():
    with criterion(2, "phase rules"):
        rng = random.Random(2)
        flip = ["TK", "TO", "TK"]
        for _ in range(1000):
            c = Charge(rng.randint(-9, 9), rng.randint(-9, 9))
            if c.is_zero():
                continue
            p = reduced_phase(c, extra_shift=rng.randint(-2, 2))
            q = autoeq.apply_to_phase(flip, p)
            assert abs(q.approx() - p.approx() - 0.5) < 1e-12
        assert autoeq.apply_to_phase(["TK"], ONE) == ONE
        s2 = autoeq.normal_form(["S", "S"])
        assert s2.ray == ((1, 0), (0, 1))
        assert s2.anchor == Phase((0, 1), 2)  # anchor value 5/2
        assert s2 == autoeq.normal_form(flip * 4)


def test_03_euclidean_reduction():
    with criterion(3, "euclidean reduction"):
        def cf_digits(r, d):
            r, d = abs(r), abs(d)
            n = 0
            while r:
                r, d = d % r, r
                n += 1
            return n

        cases = 0
        for r in range(-30, 31):
            for d in range(-30, 31):
                if r == 0 and d == 0:
                    continue
                c = Charge(r, d)
                word, res = autoeq.reduce_to_torsion(c)
                assert res.rk == 0
                assert abs(res.deg) == math.gcd(abs(r), abs(d))
                assert autoeq.apply_to_charge(word, c) == res
                assert len(autoeq.runs(word)) <= 4 * cf_digits(r, d) + 4
                cases += 1
        assert cases >= 3600


def test_04_transitivity_and_isotropy():
    with criterion(4, "transitivity and isotropy"):
        start = Charge(0, 1)
        seen = {(0, 1)}
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
        powers = set()
        for m in range(-8, 9):
            w = ["TK"] * m if m >= 0 else ["tk"] * (-m)
            powers.add(autoeq.normal_form(w))
        for n in range(0, 7):
            for word in itertools.product(autoeq.LETTERS, repeat=n):
                word = list(word)
                if autoeq.apply_to_phase(word, ONE) == ONE:
                    assert autoeq.normal_form(word) in powers


def test_05_hom_trichotomy():
    with criterion(5, "hom trichotomy"):
        rng = random.Random(5)
        for _ in range(10000):
            x, y = random_object(rng), random_object(rng)
            rules = objects.applicable_rules(x, y)
            kinds = {r.kind for r in rules}
            assert not ({"zero", "nonzero"} <= kinds)
            if any(r.rule and r.rule.startswith("serre") for r in rules):
                assert x.is_perfect() or y.is_perfect()
        cat = objects.catalog()
        v = objects.hom_verdict(cat["structure-sheaf"], cat["smooth-point"])
        assert (v.kind, v.rule) == ("nonzero", "open-phase-window")
        v = objects.hom_verdict(cat["smooth-point"], cat["structure-sheaf"])
        assert (v.kind, v.rule) == ("zero", "hn-phase-gap")
        v = objects.hom_verdict(cat["singular-point"], cat["singular-point"])
        assert v.kind == "nonzero"


def test_06_spherical_suite():
    with criterion(6, "spherical suite"):
        cat = objects.catalog()
        assert objects.is_spherical(cat["structure-sheaf"])[0]
        assert objects.is_spherical(cat["smooth-point"])[0]
        assert objects.is_spherical(objects.shift(cat["smooth-point"], 2))[0]
        assert not objects.is_spherical(cat["singular-point"])[0]
        ok, reason = objects.is_spherical(cat["etale-rank-two"])
        assert not ok and reason == "not semistable"
        ok, reason = objects.is_spherical(cat["band"])
        assert not ok and reason == "not stable"
        rng = random.Random(6)
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
            word, _ = objects.spherical_connect(s1, s2)
            assert autoeq.apply_to_phase(word, p1) == p2
            assert autoeq.apply_to_charge(word, p1.charge()) == p2.charge()


def test_07_rank_two_worked_example():
    with criterion(7, "rank-two worked example"):
        x = objects.catalog()["etale-rank-two"]
        top, bottom = x.pieces
        assert top.phase.approx() == 0.75 and top.charge() == Charge(1, 1)
        assert bottom.phase.approx() == 0.25 and bottom.charge() == Charge(1, -1)
        assert objects.total_charge(x) == Charge(2, 0)
        assert x.indecomposable
        assert objects.classify_type(x) == "IV"


def test_08_noetherian_classification():
    with criterion(8, "noetherian classification"):
        cuts = [
            RationalCut(ONE),
            RationalCut(Phase((0, 1), 0)),
            RationalCut(Phase((2, 1), -1)),
            RationalCut(Phase((-3, 2), 2)),
        ]
        specs = [
            tstruct.EMPTY_SPEC,
            StableSubsetSpec(True, "none"),
            StableSubsetSpec(False, "all"),
            StableSubsetSpec(False, "only", frozenset({"x"})),
            StableSubsetSpec(True, "all-except", frozenset({"x"})),
        ]
        cases = 0
        for cut in cuts:
            for spec in specs:
                t = TStructure(cut, spec)
                noeth = tstruct.is_noetherian(t)
                assert noeth == spec.is_empty()
                if not noeth:
                    w = tstruct.non_noetherian_witness(t, 3)
                    degs = [c.deg for c in w["charges"]]
                    if w["kind"] == "smooth-chain":
                        assert degs == [1, 2, 3]
                    else:
                        assert degs == [2, 4, 6]
                cases += 1
        assert cases == 20


def test_09_epi_chain():
    with criterion(9, "ascending chain at the golden cut"):
        cut = SurdCut(1, 1, 2, 5, strip=-1)
        chain = [Charge(1, 0)] + tstruct.epi_chain(Charge(1, 0), cut, 10)
        assert len(chain) == 11
        upper = cut.shifted(1)
        for a, b in zip(chain, chain[1:]):
            assert euler_form(a, b) == 1
            d = b - a
            assert in_cut_window(cut, (-d.deg, d.rk)) or in_cut_window(
                cut, (d.deg, -d.rk)
            )
        phases = [reduced_phase(c) for c in chain]
        for p, q in zip(phases, phases[1:]):
            assert p < q
        for p in phases:
            assert cut_cmp(cut, p) == -1 and cut_cmp(upper, p) == 1
        # brute-force oracle for the first steps
        for a, b in zip(chain[:4], chain[1:5]):
            w = tstruct._window_vector(a, cut)
            found = [
                (x, y)
                for x in range(-60, 61)
                for y in range(-60, 61)
                if w[0] * y - w[1] * x == 1
                and in_cut_window(cut, (x, y))
                and in_cut_window(cut, (w[0] - x, w[1] - y))
            ]
            assert found == [tstruct._window_vector(b, cut)]


def test_10_stability_orbit():
    with criterion(10, "stability orbit"):
        rng = random.Random(10)

        def rand_gl():
            while True:
                rows = [
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
                    for _ in range(2)
                ]
                if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] > 0:
                    return lifts.from_matrix(rows, winding=rng.randint(-2, 2))

        for _ in range(200):
            c1 = stabcond.StabilityCondition(rand_gl())
            g = rand_gl()
            c2 = stabcond.act(g, c1)
            assert stabcond.solve_transitivity(c1, c2) == g
        tau, scale, _ = stabcond.canonical_form(stabcond.StabilityCondition.standard())
        assert tau == cc(0, 1)
        assert scale == cc(1)
        cond = stabcond.StabilityCondition(rand_gl())
        base = stabcond.canonical_form(cond)[:2]
        for _ in range(20):
            g = autoeq.normal_form(random_word(rng))
            assert stabcond.canonical_form(stabcond.act_autoeq(g, cond))[:2] == base
        # the orbit of the standard condition, where the quarter turn fixes tau = i
        std = stabcond.StabilityCondition.standard()
        for _ in range(200):
            g = autoeq.normal_form(random_word(rng, max_len=40))
            assert stabcond.canonical_form(stabcond.act_autoeq(g, std))[:2] == (cc(0, 1), cc(1))


def test_11_two_component_walls():
    with criterion(11, "two-component walls"):
        obj = multicurve.example_bundle()
        assert multicurve.is_semistable(obj, 1, 2) == "Stable"
        assert multicurve.is_semistable(obj, 1, 1) == "StrictlySemistable"
        assert multicurve.is_semistable(obj, 2, 1) == "Unstable"
        ws = multicurve.walls(obj)
        assert len(ws) == 1
        assert ws[0]["wall"] == (-1, 1, 0)  # the locus b = a
        # the wall form is the cross product of the central charges
        # -deg + i(a*rk1 + b*rk2) of the object and its quotient
        a, b = 2, 3
        alpha, beta, _ = ws[0]["wall"]
        q = ws[0]["quotient"]
        w = (-obj.charge.deg, a * obj.charge.rk1 + b * obj.charge.rk2)
        v = (-q.deg, a * q.rk1 + b * q.rk2)
        assert alpha * a + beta * b == w[0] * v[1] - w[1] * v[0] == 1


def test_12_golden_shadows():
    with criterion(12, "golden shadows"):
        names = [
            "torsion-multiple",
            "shifted-semistable-bundle",
            "three-step-complex",
            "unstable-torsion-free",
            "semistable-band",
            "etale-rank-two",
        ]
        cat = objects.catalog()
        for name in names:
            svg = render.shadow_svg(cat[name])
            assert svg == (GOLDEN / f"{name}.svg").read_text()
            assert svg == render.shadow_svg(cat[name])
