import json
from fractions import Fraction

import pytest

from hnlab import autoeq, lifts, serialize, tstruct
from hnlab.charges import Charge, DomainError, Phase, RationalCut, SurdCut
from hnlab.multicurve import example_bundle
from hnlab.objects import catalog
from conftest import merge_runs, random_charge, random_object, random_phase, random_word


class TestRoundTrips:
    def test_charge(self, rng):
        for _ in range(50):
            c = random_charge(rng)
            data = json.loads(json.dumps(serialize.encode_charge(c)))
            assert serialize.decode_charge(data) == c

    def test_phase(self, rng):
        for _ in range(50):
            p = random_phase(rng)
            assert serialize.decode_phase(serialize.encode_phase(p)) == p

    def test_word(self, rng):
        for _ in range(50):
            w = random_word(rng)
            assert serialize.decode_word(serialize.encode_word(w)) == merge_runs(w)

    def test_object(self, rng):
        for _ in range(100):
            x = random_object(rng)
            data = json.loads(json.dumps(serialize.encode_object(x)))
            assert serialize.decode_object(data) == x

    def test_catalog_objects(self):
        for x in catalog().values():
            assert serialize.decode_object(serialize.encode_object(x)) == x

    def test_cuts(self):
        cuts = [
            RationalCut(Phase((-1, 0), 0)),
            SurdCut(1, 1, 2, 5, strip=-1),
        ]
        for cut in cuts:
            assert serialize.decode_cut(serialize.encode_cut(cut)) == cut

    def test_tstructure(self):
        # every smooth mode, each with and without the extreme label: none
        # and all encode as a bare string, only and all-except as an id list
        modes = [("only", frozenset({"x", "y"})), ("all-except", frozenset({"x"})),
                 ("none", frozenset()), ("all", frozenset())]
        for mode, ids in modes:
            for extreme in (True, False):
                t = tstruct.TStructure(
                    RationalCut(Phase((0, 1), 0)),
                    tstruct.StableSubsetSpec(extreme, mode, ids),
                )
                data = json.loads(json.dumps(serialize.encode_tstructure(t)))
                smooth = {mode: sorted(ids)} if ids else mode
                assert data["minus"] == {"extreme": extreme, "smooth": smooth}
                assert serialize.decode_tstructure(data) == t

    def test_autoeq(self, rng):
        for _ in range(50):
            g = autoeq.normal_form(random_word(rng))
            h = autoeq.normal_form(random_word(rng))
            for x in (g, autoeq.invert(g), autoeq.compose(g, h)):
                data = serialize.encode_autoeq(x)
                json.dumps(data)
                assert all(type(e) is int for row in data["matrix"] for e in row)
                assert serialize.decode_autoeq(data) == x

    def test_gl(self):
        g = lifts.from_matrix(
            [[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(5, 7)]]
        )
        assert serialize.decode_gl(serialize.encode_gl(g)) == g

    def test_fraction(self):
        assert serialize.encode_fraction(Fraction(3, 4)) == "3/4"
        assert serialize.encode_fraction(Fraction(5)) == "5"
        assert serialize.decode_fraction("3/4") == Fraction(3, 4)

    def test_declared(self):
        obj = example_bundle()
        assert serialize.decode_declared(serialize.encode_declared(obj)) == obj


class TestValidation:
    def test_bad_charge(self):
        with pytest.raises(DomainError):
            serialize.decode_charge([1])
        with pytest.raises(DomainError):
            serialize.decode_charge({"rk": 1, "deg": 0})

    def test_bad_phase_direction(self):
        with pytest.raises(DomainError):
            serialize.decode_phase({"dir": [2, 2], "shift": 0})

    def test_bad_cut_kind(self):
        with pytest.raises(DomainError):
            serialize.decode_cut({"kind": "cubic"})

    def test_bad_jh_label(self):
        with pytest.raises(DomainError):
            serialize.decode_object(
                {"pieces": [{"phase": {"dir": [-1, 0]}, "jh": [["weird", 1]], "perfect": True}]}
            )

    def test_bad_fraction(self):
        with pytest.raises(DomainError):
            serialize.decode_fraction("1/0")
        with pytest.raises(DomainError):
            serialize.decode_fraction("x")

    def test_bool_charge_entries_rejected(self):
        for data in ([True, 2], [1, False], [True, True]):
            with pytest.raises(DomainError):
                serialize.decode_charge(data)

    def test_bool_phase_entries_rejected(self):
        for data in (
            {"dir": [0, True], "shift": 0},
            {"dir": [False, 1], "shift": 0},
            {"dir": [0, 1], "shift": True},
        ):
            with pytest.raises(DomainError):
                serialize.decode_phase(data)

    def test_non_integer_phase_entries_rejected(self):
        for data in ({"dir": ["a", 1]}, {"dir": [0.0, 1.0]}, {"dir": [0, 1], "shift": "1"}):
            with pytest.raises(DomainError):
                serialize.decode_phase(data)


class TestFieldPaths:
    def test_multicharge_entries_are_integers(self):
        for data in ([2, 1, True], [2, 1.0, 1], ["2", 1, 1]):
            with pytest.raises(DomainError, match="multi-charge"):
                serialize.decode_multicharge(data)

    @pytest.mark.parametrize(
        "decode, data, path",
        [
            (serialize.decode_object, {"pieces": [{}]}, "$.pieces[0].phase is missing"),
            (serialize.decode_object, {"pieces": [1]}, "$.pieces[0] must be an object"),
            (serialize.decode_object, {"pieces": {}}, "$.pieces must be a list"),
            (
                serialize.decode_object,
                {"pieces": [{"phase": {"dir": [0, 1]}, "jh": [["extreme", True]], "perfect": False}]},
                "$.pieces[0].jh[0]: count",
            ),
            (serialize.decode_cut, {"kind": "surd", "a": 1}, "$.b is missing"),
            (serialize.decode_cut, {"kind": "surd", "a": 1, "b": 1, "c": 1, "D": 2, "strip": "0"}, "$.strip must be an integer"),
            (serialize.decode_cut, {"kind": "rational"}, "$.phase is missing"),
            (serialize.decode_tstructure, {"cut": {"kind": "rational", "phase": {}}}, "$.cut.phase.dir is missing"),
            (serialize.decode_gl, {"Z": 1}, "$.matrix is missing"),
            (serialize.decode_gl, {"matrix": [["1", "0"]], "anchor": {}}, "$.matrix must be a 2x2"),
            (serialize.decode_autoeq, {"matrix": [[1, 0], [0, True]], "anchor": {}}, "$.matrix entries"),
            (serialize.decode_declared, {"charge": [1, 1, 1], "quotients": 3}, "$.quotients must be a list"),
            (serialize.decode_phase, [0, 1], "$ must be an object"),
            (
                serialize.decode_object,
                {"pieces": [{"phase": {"dir": [-1, 0]}, "jh": [["smooth", "x", 1]], "perfect": "false"}]},
                "$.pieces[0].perfect must be true or false",
            ),
            (serialize.decode_subset, {"extreme": 1}, "$.extreme must be true or false"),
            (serialize.decode_subset, {"smooth": 3}, "$.smooth: bad smooth subset"),
            (serialize.decode_declared, {"charge": [1, 1]}, "$.charge: multi-charge is"),
            (
                serialize.decode_declared,
                {"charge": [1, 1, 1], "quotients": [[1, 0, 0], [1, True, 0]]},
                "$.quotients[1]: multi-charge is",
            ),
            (
                serialize.decode_object,
                {"pieces": [{"phase": {"dir": [0, 1]}, "jh": [["weird", 1]], "perfect": True}]},
                "$.pieces[0].jh[0]: unknown label kind 'weird'",
            ),
            (serialize.decode_cut, {"kind": "cone"}, "$.kind: unknown cut kind 'cone'"),
            (serialize.decode_tstructure, {"cut": {"kind": 7}}, "$.cut.kind: unknown cut kind 7"),
            (
                serialize.decode_object,
                {"pieces": [{"phase": {"dir": [-1, 0]}, "jh": [["extreme", 1, "junk", 7]], "perfect": False}]},
                "$.pieces[0].jh[0]: extreme jh entry is [extreme, count]",
            ),
            (
                serialize.decode_object,
                {"pieces": [{"phase": {"dir": [2, 2]}, "jh": [["extreme", 1]], "perfect": False}]},
                "$.pieces[0].phase: direction (2, 2) is not primitive",
            ),
            (
                serialize.decode_object,
                {"pieces": [{"phase": {"dir": [0, 1]}, "jh": [["smooth", "", 1]], "perfect": True}]},
                "$.pieces[0].jh[0]: smooth label requires an identifier",
            ),
            (
                serialize.decode_object,
                {"pieces": [{"phase": {"dir": [0, 1]}, "jh": [["extreme", 0]], "perfect": False}]},
                "$.pieces[0].jh: composition counts must be positive integers",
            ),
            (
                serialize.decode_object,
                {"pieces": [{"phase": {"dir": [0, 1]}, "jh": [["smooth", "p", 1]], "perfect": False}]},
                "$.pieces[0]: a non-perfect piece has only extreme factors",
            ),
            (
                serialize.decode_tstructure,
                {"cut": {"kind": "surd", "a": 1, "b": 1, "c": 2, "D": 4}},
                "$.cut: surd cut slope must be irrational",
            ),
            (
                serialize.decode_tstructure,
                {"cut": {"kind": "rational", "phase": {"dir": [1, -1]}}},
                "$.cut.phase: direction (1, -1) outside canonical sector",
            ),
            (
                serialize.decode_tstructure,
                {"cut": {"kind": "surd", "a": 1, "b": 1, "c": 2, "D": 5}, "minus": {"smooth": "some"}},
                "$.minus: unknown smooth mode 'some'",
            ),
            (
                serialize.decode_gl,
                {"matrix": [["1", "0"], ["0", "1"]], "anchor": {"dir": [0, 2]}},
                "$.anchor: direction (0, 2) is not primitive",
            ),
        ],
    )
    def test_errors_name_the_path(self, decode, data, path):
        with pytest.raises(DomainError) as exc:
            decode(data)
        assert path in str(exc.value)

    @pytest.mark.parametrize(
        "decode, data, message",
        [
            (serialize.decode_phase, {"dir": [2, 2]}, "direction (2, 2) is not primitive"),
            (serialize.decode_cut, {"kind": "surd", "a": 1, "b": 1, "c": 0, "D": 5},
             "surd cut denominator must be positive"),
            (serialize.decode_subset, {"smooth": "some"}, "unknown smooth mode 'some'"),
        ],
    )
    def test_constructor_error_at_the_root_is_unprefixed(self, decode, data, message):
        with pytest.raises(DomainError) as exc:
            decode(data)
        assert str(exc.value) == message

    def test_bool_is_not_a_rational(self):
        with pytest.raises(DomainError):
            serialize.decode_fraction(True)
