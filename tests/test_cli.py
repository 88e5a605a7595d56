import argparse
import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hnlab
from hnlab import autoeq, cli, objects, serialize, stabcond
from hnlab.charges import Charge, DomainError, Phase
from hnlab.cli import COMMANDS, build_parser, main
from conftest import plane_charge, random_object, run_power_matrix, run_power_phase

O_SHEAF = json.dumps(serialize.encode_object(objects.catalog()["structure-sheaf"]))
SMOOTH_PT = json.dumps(serialize.encode_object(objects.catalog()["smooth-point"]))
STANDARD_COND = json.dumps(
    {"matrix": [["1", "0"], ["0", "1"]], "anchor": {"dir": [0, 1], "shift": 0}}
)
BUNDLE = json.dumps(
    {"charge": [2, 1, 1], "quotients": [[1, 1, 0], [3, 0, 1]]}
)
GOLDEN_CUT = json.dumps({"kind": "surd", "a": 1, "b": 1, "c": 2, "D": 5, "strip": -1})
# cut at phase 1 with every smooth point pushed down: a non-Noetherian heart
SMOOTH_DOWN = json.dumps({"cut": {"kind": "rational", "phase": {"dir": [-1, 0]}},
                          "minus": {"extreme": False, "smooth": "all"}})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def _charge_image(word, c):
    """The charge c moved by a word, through the run-power reference matrix."""
    return plane_charge(run_power_matrix(word), c)


class TestReduce:
    def test_line_bundle(self, capsys):
        code, data = run_json(capsys, ["reduce", "--charge", "[1, 0]"])
        assert code == 0
        assert data["result"] == [0, 1]
        word = serialize.decode_word(data["word"])
        assert autoeq.apply_to_charge(word, Charge(1, 0)) == Charge(0, 1)

    def test_zero_charge_is_domain_error(self, capsys):
        code, data = run_json(capsys, ["reduce", "--charge", "[0, 0]"])
        assert code == 3
        assert "error" in data

    def test_malformed_json(self, capsys):
        code, data = run_json(capsys, ["reduce", "--charge", "[1, 0"])
        assert code == 2
        assert "malformed" in data["error"]

    def test_overlong_twist_run_is_one_run(self, capsys):
        # the second continued-fraction digit is about 2.5e40
        big = 10**41
        c = Charge(big + 7, big + 3)
        code = main(["reduce", "--charge", json.dumps([c.rk, c.deg])])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        data = json.loads(captured.out)
        word = serialize.decode_word(data["word"])
        assert len(word) <= 2 * 10
        assert _charge_image(word, c) == Charge(*data["result"]) == Charge(0, 1)

    def test_former_word_cap_inputs_are_reduced(self, capsys):
        for deg, text in ((6, "tk^5TOTK"), (11, "tk^10TOTK")):
            code, data = run_json(capsys, ["reduce", "--charge", json.dumps([1, deg])])
            assert code == 0 and data["word"] == text
            word = serialize.decode_word(data["word"])
            assert _charge_image(word, Charge(1, deg)) == Charge(*data["result"]) == Charge(0, 1)

    def test_bool_charge_is_domain_error(self, capsys):
        code, data = run_json(capsys, ["reduce", "--charge", "[true, 2]"])
        assert code == 3
        assert "charge" in data["error"]


class TestAct:
    def test_on_charge(self, capsys):
        code, data = run_json(
            capsys, ["act", "--word", "TKTOTK", "--charge", "[1, 0]"]
        )
        assert code == 0
        assert data["charge"] == [0, 1]

    def test_on_phase_and_object(self, capsys):
        phase = json.dumps({"dir": [0, 1], "shift": 0})
        code, data = run_json(
            capsys,
            ["act", "--word", "S", "--phase", phase, "--obj", O_SHEAF],
        )
        assert code == 0
        assert data["phase"] == {"dir": [0, 1], "shift": 1}
        assert data["obj"]["pieces"][0]["phase"]["shift"] == 1

    def test_bad_word(self, capsys):
        code, data = run_json(capsys, ["act", "--word", "TQ", "--charge", "[1, 0]"])
        assert code == 3

    def test_exponent_past_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        word = "TK^" + "9" * (limit + 700)
        code, data = run_json(capsys, ["act", "--word", word, "--charge", "[1, 0]"])
        assert code == 3
        assert data["error"] == (
            f"the exponent of the run at character 0 of the word has more than {limit} "
            "decimal digits, the interpreter's limit for reading integers")


class TestPhase:
    def test_line_bundle(self, capsys):
        code, data = run_json(capsys, ["phase", "--charge", "[1, 0]"])
        assert code == 0
        assert data["phase"] == {"dir": [0, 1], "shift": 0}
        assert data["slope"] == "0"
        assert data["central_charge"] == [0, 1]
        assert data["mass_squared"] == 1

    def test_torsion_slope(self, capsys):
        code, data = run_json(capsys, ["phase", "--charge", "[0, 3]"])
        assert code == 0
        assert data["slope"] == "inf"


class TestHomSphericalConnect:
    def test_hom(self, capsys):
        code, data = run_json(capsys, ["hom", "--x", O_SHEAF, "--y", SMOOTH_PT])
        assert code == 0
        assert data == {"verdict": "nonzero", "rule": "open-phase-window"}

    def test_hom_explain_lists_the_library_rules(self, capsys, rng):
        for _ in range(30):
            x, y = random_object(rng), random_object(rng)
            argv = ["hom", "--explain", "--x", json.dumps(serialize.encode_object(x)),
                    "--y", json.dumps(serialize.encode_object(y))]
            code, data = run_json(capsys, argv)
            rules = objects.applicable_rules(x, y)
            v = objects.hom_verdict(x, y)
            assert code == 0 and list(data) == ["verdict", "rule", "rules", "consistent"]
            assert (data["verdict"], data["rule"]) == (v.kind, v.rule)
            assert data["rules"] == [{"verdict": r.kind, "rule": r.rule} for r in rules]
            assert data["consistent"] is True

    def test_hom_explain_keeps_errors(self, capsys):
        empty = json.dumps({"pieces": []})
        plain = run(capsys, ["hom", "--x", empty, "--y", SMOOTH_PT])
        assert plain[0] == 3
        assert run(capsys, ["hom", "--x", empty, "--y", SMOOTH_PT, "--explain"]) == plain

    def test_explain_is_not_joined_to_a_negative_rational(self, capsys):
        # --explain takes no value, so -5/4 after it stays an argument of its own
        assert "--explain" not in set(cli._flags())
        assert cli._join_negative_values(["hom", "--explain", "-5/4"]) == \
            ["hom", "--explain", "-5/4"]
        with pytest.raises(SystemExit) as exc:
            main(["hom", "--x", O_SHEAF, "--y", SMOOTH_PT, "--explain", "-5/4"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: -5/4\n")

    def test_spherical(self, capsys):
        code, data = run_json(capsys, ["spherical", "--obj", O_SHEAF])
        assert code == 0
        assert data["spherical"] is True

    @pytest.mark.parametrize("entry", [["extreme", 1, "junk", 7], ["extreme", 1, 1]])
    def test_spherical_rejects_a_long_extreme_entry(self, capsys, entry):
        obj = {"pieces": [{"phase": {"dir": [-1, 0]}, "jh": [entry], "perfect": False}]}
        code, data = run_json(capsys, ["spherical", "--obj", json.dumps(obj)])
        assert code == 3
        assert data["error"] == "$.pieces[0].jh[0]: extreme jh entry is [extreme, count]"

    def test_connect(self, capsys):
        code, data = run_json(
            capsys, ["connect", "--s1", O_SHEAF, "--s2", SMOOTH_PT]
        )
        assert code == 0
        word = serialize.decode_word(data["word"])
        assert autoeq.apply_to_charge(word, Charge(1, 0)) == Charge(0, 1)

    def test_connect_rejects_non_spherical(self, capsys):
        band = json.dumps(serialize.encode_object(objects.catalog()["band"]))
        code, data = run_json(capsys, ["connect", "--s1", band, "--s2", O_SHEAF])
        assert code == 3

    def test_connect_at_huge_shift(self, capsys):
        p1 = Phase((-1, 0), 10**20)
        piece = {"phase": {"dir": [-1, 0], "shift": p1.shift}, "jh": [["smooth", "x", 1]],
                 "perfect": True}
        code = main(["connect", "--s1", json.dumps({"pieces": [piece]}), "--s2", SMOOTH_PT])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        data = json.loads(captured.out)
        assert data["word"] == "s^" + str(10**20)
        word = serialize.decode_word(data["word"])
        assert run_power_phase(word, p1) == Phase((-1, 0), 0)


    def test_connect_past_the_digit_limit(self, capsys):
        # strips +-(10**4300 - 1) are read, but the word s^(2*10**4300 - 2)
        # has 4,301 digits, one past the interpreter's default print limit
        limit = sys.get_int_max_str_digits()
        n = 10**limit - 1
        s1, s2 = ({"pieces": [{"phase": {"dir": [-1, 0], "shift": k}, "jh": [["smooth", "x", 1]],
                               "perfect": True}]} for k in (n, -n))
        code = main(["connect", "--s1", json.dumps(s1), "--s2", json.dumps(s2)])
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert code == 3 and captured.err == ""
        assert "output" in error and f"{limit} decimal digits" in error

    def test_long_input_integer_is_not_blamed_on_the_output(self, capsys):
        shift = "1" * (sys.get_int_max_str_digits() + 1)
        s1 = '{"pieces": [{"phase": {"dir": [-1, 0], "shift": %s}, "jh": [["smooth", "x", 1]], ' \
             '"perfect": true}]}' % shift
        code = main(["connect", "--s1", s1, "--s2", SMOOTH_PT])
        captured = capsys.readouterr()
        assert code == 3 and captured.err == ""
        error = json.loads(captured.out)["error"]
        assert "output" not in error
        assert error.startswith("--s1: ") and f"{len(shift) - 1} decimal digits" in error

    @pytest.mark.parametrize("channel", ["file", "in-file", "stdin"])
    def test_long_input_integer_names_its_file(self, capsys, monkeypatch, tmp_path, channel):
        long = "1" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "charge.json"
        if channel == "file":
            path.write_text(f"[{long}, 1]")
            argv, where = ["reduce", "--charge", str(path)], str(path)
        elif channel == "in-file":
            path.write_text('{"charge": [%s, 1]}' % long)
            argv, where = ["reduce", "--in", str(path)], str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO('{"charge": [%s, 1]}' % long))
            argv, where = ["reduce", "--in", "-"], "--in -"
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error.startswith(f"{where}: ") and "reading integers" in error


class TestSd:
    def test_two_slopes(self, capsys):
        code, data = run_json(capsys, ["sd", "--slopes", '["1/3", "1/2"]'])
        assert code == 0
        assert data["charge"] == [5, 2]
        assert data["d0"] == [0, 1, 0, 0, 0]
        assert "unverified" in data["warning"]

    def test_bad_slope_order(self, capsys):
        code, data = run_json(capsys, ["sd", "--slopes", '["1/2", "1/3"]'])
        assert code == 3


class TestTStruct:
    def test_noetherian(self, capsys):
        t = json.dumps({"cut": {"kind": "rational", "phase": {"dir": [-1, 0]}}})
        code, data = run_json(capsys, ["tstruct", "noetherian", "--t", t])
        assert code == 0 and data["noetherian"] is True
        t2 = json.dumps({"cut": json.loads(GOLDEN_CUT)})
        code, data = run_json(capsys, ["tstruct", "noetherian", "--t", t2])
        assert code == 0 and data["noetherian"] is False

    def test_member_and_truncate(self, capsys):
        t = json.dumps(
            {"cut": {"kind": "rational", "phase": {"dir": [-1, 0], "shift": -1}}}
        )
        code, data = run_json(
            capsys, ["tstruct", "member", "--t", t, "--obj", O_SHEAF]
        )
        assert code == 0
        assert data["membership"] == ["aisle-leq0", "heart"]
        code, data = run_json(
            capsys, ["tstruct", "truncate", "--t", t, "--obj", O_SHEAF]
        )
        assert code == 0
        assert len(data["below"]["pieces"]) == 1
        assert data["above"]["pieces"] == []

    def test_witness(self, capsys):
        t = json.dumps(
            {
                "cut": {"kind": "rational", "phase": {"dir": [-1, 0]}},
                "minus": {"extreme": False, "smooth": "all"},
            }
        )
        code, data = run_json(
            capsys, ["tstruct", "witness", "--t", t, "--length", "3"]
        )
        assert code == 0
        assert data["kind"] == "smooth-chain"
        assert data["charges"] == [[1, 1], [1, 2], [1, 3]]

    def test_epichain(self, capsys):
        code, data = run_json(
            capsys,
            [
                "tstruct",
                "epichain",
                "--cut",
                GOLDEN_CUT,
                "--charge",
                "[1, 0]",
                "--length",
                "4",
            ],
        )
        assert code == 0
        assert data["chain"] == [[1, 1], [2, 3], [5, 8], [13, 21]]

    def test_epichain_needs_surd(self, capsys):
        cut = json.dumps({"kind": "rational", "phase": {"dir": [-1, 0]}})
        code, data = run_json(
            capsys,
            ["tstruct", "epichain", "--cut", cut, "--charge", "[1, 0]"],
        )
        assert code == 3

    def test_bound_enforced(self, capsys, monkeypatch):
        monkeypatch.setenv("HNLAB_BOUND", "2")
        code, data = run_json(
            capsys,
            [
                "tstruct",
                "epichain",
                "--cut",
                GOLDEN_CUT,
                "--charge",
                "[1, 0]",
                "--length",
                "5",
            ],
        )
        assert code == 3
        assert "HNLAB_BOUND" in data["error"] or "exceeds" in data["error"]

    def test_witness_length_bound(self, capsys, monkeypatch):
        argv = ["tstruct", "witness", "--t", SMOOTH_DOWN, "--length", "3"]
        monkeypatch.setenv("HNLAB_BOUND", "3")
        assert run_json(capsys, argv)[0] == 0
        monkeypatch.setenv("HNLAB_BOUND", "2")
        assert run_json(capsys, argv) == (3, {"error": "length exceeds HNLAB_BOUND"})

    def test_bound_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("HNLAB_BOUND", "abc")
        code, data = run_json(capsys, ["tstruct", "witness", "--t", SMOOTH_DOWN])
        assert (code, data) == (3, {"error": "HNLAB_BOUND must be an integer"})


class TestStab:
    def test_canon_standard(self, capsys):
        code, data = run_json(capsys, ["stab", "canon", "--cond", STANDARD_COND])
        assert code == 0
        assert data["tau"] == {"re": "0", "im": "1"}
        assert data["scale"] == {"re": "1", "im": "0"}

    def test_solve_round_trip(self, capsys):
        other = json.dumps(
            {
                "matrix": [["2", "0"], ["0", "2"]],
                "anchor": {"dir": [0, 1], "shift": 0},
            }
        )
        code, data = run_json(
            capsys, ["stab", "solve", "--c1", STANDARD_COND, "--c2", other]
        )
        assert code == 0
        assert data["matrix"] == [["2", "0"], ["0", "2"]]

    def test_slice(self, capsys):
        code, data = run_json(
            capsys, ["stab", "slice", "--cond", STANDARD_COND, "--t", "1/2"]
        )
        assert code == 0
        assert data["phase"] == {"dir": [0, 1], "shift": 0}

    def test_slice_at_negative_t(self, capsys):
        cond = {"matrix": [["2", "1"], ["1", "1"]], "anchor": {"dir": [1, 1], "shift": 0}}
        code, data = run_json(
            capsys, ["stab", "slice", "--cond", json.dumps(cond), "--t=-5/4"]
        )
        assert code == 0
        want = stabcond.slicing_phase(
            stabcond.StabilityCondition(serialize.decode_gl(cond)), Fraction(-5, 4)
        )
        assert data["phase"] == serialize.encode_phase(want)

    @pytest.mark.parametrize("t", ["-5/4", "-3", "-1/2"])
    def test_negative_t_as_a_separate_argument(self, capsys, t):
        cond = json.dumps({"matrix": [["2", "1"], ["1", "1"]],
                           "anchor": {"dir": [1, 1], "shift": 0}})
        joined = run(capsys, ["stab", "slice", "--cond", cond, f"--t={t}"])
        assert joined[0] == 0
        assert run(capsys, ["stab", "slice", "--cond", cond, "--t", t]) == joined

    def test_a_following_flag_is_not_joined(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stab", "slice", "--cond", STANDARD_COND, "--t", "--out", "x"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and "argument --t: expected one argument" in captured.err


class TestWallsScan:
    def test_walls(self, capsys):
        code, data = run_json(capsys, ["walls", "--obj", BUNDLE])
        assert code == 0
        assert data == [
            {"quotient": [1, 1, 0], "wall": [-1, 1, 0], "unstable_side": "-"}
        ]

    def test_scan_json(self, capsys):
        code, data = run_json(
            capsys,
            ["scan", "--obj", BUNDLE, "--step", "1", "--a-max", "2", "--b-max", "2"],
        )
        assert code == 0
        assert data == [
            ["Stable", "StrictlySemistable"],
            ["StrictlySemistable", "Unstable"],
        ]

    def test_scan_csv(self, capsys):
        code, out = run(
            capsys,
            [
                "scan",
                "--obj",
                BUNDLE,
                "--step",
                "1",
                "--a-max",
                "2",
                "--b-max",
                "2",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        assert out == (
            "Stable,StrictlySemistable\nStrictlySemistable,Unstable\n"
        )

    def test_scan_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("HNLAB_BOUND", "4")
        code, data = run_json(
            capsys,
            ["scan", "--obj", BUNDLE, "--step", "1", "--a-max", "10", "--b-max", "10"],
        )
        assert code == 3


class TestShadowCatalog:
    def test_shadow_by_name(self, capsys):
        code, out = run(capsys, ["shadow", "--name", "etale-rank-two"])
        assert code == 0
        assert out.startswith("<svg ") and out.endswith("</svg>\n")

    def test_shadow_unknown_name(self, capsys):
        code, data = run_json(capsys, ["shadow", "--name", "no-such-entry"])
        assert code == 3

    def test_shadow_inline_object(self, capsys):
        code, out = run(capsys, ["shadow", "--obj", SMOOTH_PT])
        assert code == 0
        assert "<circle" in out

    def test_catalog(self, capsys):
        code, data = run_json(capsys, ["catalog"])
        assert code == 0
        assert "structure-sheaf" in data
        assert data["structure-sheaf"]["charge"] == [1, 0]
        assert data["etale-rank-two"]["note"]


class TestInputChannels:
    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "charge.json"
        f.write_text("[1, 0]")
        code, data = run_json(capsys, ["reduce", "--charge", str(f)])
        assert code == 0
        assert data["result"] == [0, 1]

    def test_stdin_document(self, capsys, monkeypatch, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"charge": [1, 0]}))
        code, data = run_json(capsys, ["reduce", "--in", str(doc)])
        assert code == 0
        assert data["result"] == [0, 1]

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"charge": [2, 1]})))
        code, data = run_json(capsys, ["reduce", "--in", "-"])
        assert code == 0
        assert data["result"] in ([0, 1], [0, -1])

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        code, _ = run(capsys, ["reduce", "--charge", "[1, 0]", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["result"] == [0, 1]

    def test_missing_input(self, capsys):
        code, data = run_json(capsys, ["reduce"])
        assert code == 3
        assert "missing" in data["error"]

    @pytest.mark.parametrize(
        "flags, path",
        [
            (["--in", "{tmp}/missing.json"], "{tmp}/missing.json"),
            (["--charge", "[1, 0]", "--out", "{tmp}/no-dir/x.json"], "{tmp}/no-dir/x.json"),
            (["--charge", "[1, 0]", "--out", "{tmp}"], "{tmp}"),
        ],
        ids=["in-missing", "out-missing-dir", "out-is-dir"],
    )
    def test_unusable_file_is_domain_error(self, capsys, tmp_path, flags, path):
        code = main(["reduce"] + [f.format(tmp=tmp_path) for f in flags])
        captured = capsys.readouterr()
        assert code == 3
        assert path.format(tmp=tmp_path) in json.loads(captured.out)["error"]
        assert captured.err == ""

    @pytest.mark.parametrize("flag", ["--in", "--charge"])
    @pytest.mark.parametrize(
        "content, code, message",
        [
            (b"\xff[1, 0]", 3, "'utf-8' codec can't decode byte 0xff in position 0"),
            (b"[1, 0", 2, "malformed JSON: {path}: Expecting ',' delimiter: line 1 column 6"),
        ],
        ids=["not-utf8", "malformed"],
    )
    def test_undecodable_file_is_named(self, capsys, tmp_path, flag, content, code, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        got, data = run_json(capsys, ["reduce", flag, str(bad)])
        assert got == code
        assert str(bad) in data["error"]
        assert message.format(path=bad) in data["error"]

    @pytest.mark.parametrize("channel", ["flag", "in-file", "stdin"])
    def test_deep_nesting_is_domain_error(self, capsys, monkeypatch, tmp_path, channel):
        doc = '{"charge": %s}' % ("[" * 50_000 + "]" * 50_000)
        path = tmp_path / "doc.json"
        if channel == "flag":
            argv, where = ["phase", "--charge", "[" * 100_000], "--charge"
        elif channel == "in-file":
            path.write_text(doc)
            argv, where = ["phase", "--in", str(path)], str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            argv, where = ["phase", "--in", "-"], "--in -"
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error.startswith(f"{where}: ") and "nested more deeply" in error

    def test_nesting_within_the_limit_reaches_the_decoder(self, capsys):
        code, data = run_json(capsys, ["phase", "--charge", "[" * 900 + "]" * 900])
        assert code == 3
        assert data["error"] == "charge must be [rk, deg]"

    def test_flag_overrides_document(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"charge": [0, 0]}))
        code, data = run_json(
            capsys, ["reduce", "--in", str(doc), "--charge", "[1, 0]"]
        )
        assert code == 0
        assert data["result"] == [0, 1]


class TestScanBound:
    def test_thin_grid_with_many_rows_is_refused(self, capsys, monkeypatch):
        # (a_max/step)*(b_max/step) is 4 here, but the grid has 4000 rows
        monkeypatch.setenv("HNLAB_BOUND", "4")
        code, data = run_json(
            capsys,
            ["scan", "--obj", BUNDLE, "--step", "1", "--a-max", "1/1000", "--b-max", "4000"],
        )
        assert code == 3 and "HNLAB_BOUND" in data["error"]

    def test_grid_of_exactly_the_bound_passes(self, capsys, monkeypatch):
        monkeypatch.setenv("HNLAB_BOUND", "2500")
        argv = ["scan", "--obj", BUNDLE, "--step", "1/25", "--a-max", "2", "--b-max", "2"]
        code, data = run_json(capsys, argv)
        assert code == 0 and len(data) == 50 and all(len(r) == 50 for r in data)
        monkeypatch.setenv("HNLAB_BOUND", "2499")
        code, data = run_json(capsys, argv)
        assert code == 3

    def test_rows_without_columns_count_as_cells(self, capsys, monkeypatch):
        monkeypatch.setenv("HNLAB_BOUND", "3")
        argv = ["scan", "--obj", BUNDLE, "--step", "1", "--a-max", "1/2", "--b-max"]
        code, data = run_json(capsys, argv + ["3"])
        assert code == 0 and data == [[], [], []]
        code, data = run_json(capsys, argv + ["4"])
        assert code == 3


class TestRationalFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--step", "1/0"],
            ["--a-max", "1/0"],
            ["--b-max", "1/0"],
            ["--step", "x"],
            ["--step=-1/0"],
        ],
    )
    def test_scan_flags(self, capsys, flags):
        code = main(["scan", "--obj", BUNDLE] + flags)
        captured = capsys.readouterr()
        assert code == 3 and "bad rational" in json.loads(captured.out)["error"]
        assert captured.err == ""

    @pytest.mark.parametrize("t", ["1/0", "x", "-1/0"])
    def test_slice_t(self, capsys, t):
        code = main(["stab", "slice", "--cond", STANDARD_COND, f"--t={t}"])
        captured = capsys.readouterr()
        assert code == 3 and "bad rational" in json.loads(captured.out)["error"]
        assert captured.err == ""


_HUGE_EXPONENT = "1e-100000000"  # Fraction would build 10**100000000 for it


class TestExponentRefused:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stab", "slice", "--cond", STANDARD_COND, "--t", _HUGE_EXPONENT],
            ["scan", "--obj", BUNDLE, "--step", _HUGE_EXPONENT],
            ["scan", "--obj", BUNDLE, "--a-max", _HUGE_EXPONENT],
            ["scan", "--obj", BUNDLE, "--b-max", _HUGE_EXPONENT],
            ["sd", "--slopes", json.dumps(["1/2", _HUGE_EXPONENT])],
            ["stab", "canon", "--cond",
             json.dumps({"matrix": [[_HUGE_EXPONENT, "0"], ["0", "1"]], "anchor": {"dir": [0, 1]}})],
            # a value after its flag that starts with '-' is joined to the flag unread
            ["stab", "slice", "--cond", STANDARD_COND, "--t", "-" + _HUGE_EXPONENT],
            ["scan", "--obj", BUNDLE, "--step", "-" + _HUGE_EXPONENT.upper()],
        ],
        ids=["t", "step", "a-max", "b-max", "sd-slope", "stab-matrix", "joined-t", "joined-step"],
    )
    def test_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.err == ""
        assert json.loads(captured.out)["error"].endswith(': write it as "p/q"')
        assert elapsed < 1

    @pytest.mark.parametrize(
        "entry, value, error",
        [
            ((0, 0), _HUGE_EXPONENT, f'bad rational {_HUGE_EXPONENT!r}: write it as "p/q"'),
            ((1, 0), "-1E9", 'bad rational \'-1E9\': write it as "p/q"'),
            ((0, 1), "1/0", "bad rational '1/0'"),
            ((1, 1), 0.5, 'bad rational 0.5: a JSON float is not exact; write it as "p/q"'),
        ],
        ids=["exponent", "upper-exponent", "zero-denominator", "float"],
    )
    def test_matrix_entry_named_by_its_path(self, capsys, tmp_path, entry, value, error):
        # from a flag and from an --in key alike
        matrix = [["1", "0"], ["0", "1"]]
        matrix[entry[0]][entry[1]] = value
        cond = {"matrix": matrix, "anchor": {"dir": [0, 1]}}
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"cond": cond}))
        for argv in (["stab", "canon", "--cond", json.dumps(cond)],
                     ["stab", "canon", "--in", str(doc)]):
            code, data = run_json(capsys, argv)
            assert code == 3
            assert data["error"] == f"$.matrix[{entry[0]}][{entry[1]}]: {error}"

    @pytest.mark.parametrize("value", ["1e3", "1E3", "-2.5e-1", "1/2e3", "3e0"])
    def test_any_exponent_part(self, value):
        with pytest.raises(DomainError, match=r'^bad rational .*: write it as "p/q"$'):
            serialize.decode_fraction(value)

    def test_decimal_point_without_exponent_still_reads(self):
        assert serialize.decode_fraction("-2.5") == Fraction(-5, 2)
        assert serialize.decode_fraction(" 7/4 ") == Fraction(7, 4)

    @pytest.mark.parametrize("value", ["-1/0", "-5x", "-.5", "-3"])
    def test_negative_values_reach_the_decoder(self, value):
        assert cli._join_negative_values(["stab", "slice", "--t", value, "--out", "-x"]) == \
            ["stab", "slice", f"--t={value}", "--out", "-x"]


class TestDecoderErrors:
    @pytest.mark.parametrize(
        "argv, path",
        [
            (["hom", "--x", '{"pieces":[{}]}', "--y", '{"pieces":[{}]}'], "$.pieces[0].phase"),
            (["tstruct", "noetherian", "--t", '{"cut":{"kind":"surd","a":1}}'], "$.cut.b"),
            (["stab", "slice", "--cond", '{"Z":1}', "--t=1/2"], "$.matrix"),
            (["walls", "--obj", '{"charge":[2, 1, true]}'], "multi-charge"),
            (["hom", "--x", O_SHEAF, "--y", '{"pieces":[{"phase":{"dir":[0,1]},"jh":[["smooth",[1],1]],"perfect":true}]}'], "$.pieces[0].jh[0]"),
            (["tstruct", "member", "--t", '{"cut":{"kind":"rational","phase":{"dir":[0,1]}},"minus":{"smooth":{"only":3}}}', "--obj", O_SHEAF], "$.minus.smooth.only"),
            (["sd", "--slopes", "5"], "slopes"),
            (["stab", "canon", "--cond", '{"matrix":[["1",Infinity],["0","1"]],"anchor":{"dir":[0,1]}}'], "bad rational"),
            (["spherical", "--obj", '{"pieces":[{"phase":{"dir":[2,2]},"jh":[["extreme",1]],"perfect":false}]}'], "$.pieces[0].phase: direction (2, 2) is not primitive"),
        ],
    )
    def test_rejected_with_path(self, capsys, argv, path):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert path in json.loads(captured.out)["error"]
        assert captured.err == ""

    @pytest.mark.parametrize(
        "pieces, indecomposable, message",
        [
            ([([0, 1], [["extreme", 1]], False), ([-1, 0], [["extreme", 1]], False)], None,
             "piece phases must strictly decrease"),
            ([([-1, 0], [["extreme", 1]], False), ([0, 1], [["smooth", "p0", 1]], True)], True,
             "an indecomposable object with several pieces has only non-perfect pieces"),
            ([([0, 1], [["smooth", "p0", 1], ["smooth", "p1", 1]], True)], True,
             "an indecomposable semistable piece has one factor type"),
            ([], True, "the zero object is not indecomposable"),
        ],
    )
    def test_object_errors_name_the_pieces(self, capsys, tmp_path, pieces, indecomposable, message):
        # the checks across pieces report $.pieces, from a flag and from an --in key alike
        obj = {"pieces": [{"phase": {"dir": d}, "jh": jh, "perfect": perfect}
                          for d, jh, perfect in pieces]}
        if indecomposable is not None:
            obj["indecomposable"] = indecomposable
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"obj": obj}))
        for argv in (["spherical", "--obj", json.dumps(obj)], ["spherical", "--in", str(doc)],
                     ["act", "--word", "TK", "--obj", json.dumps(obj)],
                     ["act", "--word", "TK", "--in", str(doc)]):
            code, data = run_json(capsys, argv)
            assert code == 3
            assert data["error"] == f"$.pieces: {message}"

    def test_in_document_must_be_an_object(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text("[1, 2]")
        code, data = run_json(capsys, ["reduce", "--in", str(doc)])
        assert code == 3 and "--in" in data["error"]


# Random JSON for every JSON flag: schema-shaped documents with any node
# possibly replaced by junk, so the fuzzer reaches the inner decoders too.
_KEYS = ("pieces", "phase", "dir", "shift", "jh", "perfect", "indecomposable",
         "kind", "a", "b", "c", "D", "strip", "cut", "minus", "extreme", "smooth",
         "matrix", "anchor", "charge", "quotients")
_WORDS = ("rational", "surd", "extreme", "smooth", "none", "all", "only",
          "all-except", "x", "", "1/2", "1/0", "-3")
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-6, 6) | st.floats() | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=12,
)


def _or_junk(s):
    # mostly well-formed, so that decoding gets deep before it fails
    return st.integers(0, 7).flatmap(lambda i: s if i else _junk)


_small = st.integers(-4, 4)
_pair = st.lists(_small, min_size=2, max_size=2)
_dirs = [[-1, 0], [0, 1], [1, 1], [-1, 1], [1, 2], [-2, 1], [3, 1], [2, 2], [0, 0], [1, -1]]
_phase = st.fixed_dictionaries(
    {"dir": _or_junk(st.sampled_from(_dirs))}, optional={"shift": _or_junk(_small)}
)
_jh_entry = st.one_of(
    st.tuples(st.just("extreme"), _or_junk(_small)).map(list),
    st.tuples(st.just("smooth"), _or_junk(st.sampled_from(["x", "y", ""])), _small).map(list),
)
_piece = st.fixed_dictionaries(
    {
        "phase": _or_junk(_phase),
        "jh": _or_junk(st.lists(_or_junk(_jh_entry), max_size=3)),
        "perfect": _or_junk(st.booleans()),
    }
)
_object = st.fixed_dictionaries(
    {"pieces": _or_junk(st.lists(_or_junk(_piece), max_size=3))},
    optional={"indecomposable": _or_junk(st.booleans())},
)
_cut = st.one_of(
    st.fixed_dictionaries({"kind": st.just("rational"), "phase": _or_junk(_phase)}),
    st.fixed_dictionaries(
        {"kind": st.just("surd"), "a": _or_junk(_small), "b": _or_junk(_small),
         "c": _or_junk(_small), "D": _or_junk(st.integers(-2, 13))},
        optional={"strip": _or_junk(_small)},
    ),
)
_subset = st.fixed_dictionaries(
    {},
    optional={
        "extreme": _or_junk(st.booleans()),
        "smooth": _or_junk(
            st.sampled_from(["none", "all", "only", "bogus"])
            | st.dictionaries(
                st.sampled_from(["only", "all-except", "bogus"]),
                _or_junk(st.lists(st.sampled_from(["x", "y"]), max_size=2)),
                min_size=1,
                max_size=1,
            )
        ),
    },
)
_tstructure = st.fixed_dictionaries({"cut": _or_junk(_cut)}, optional={"minus": _or_junk(_subset)})
_rational = st.sampled_from(["1", "2", "1/2", "-1/3", "3/4", "0", "1/0", "x"])
_cond = st.fixed_dictionaries(
    {
        "matrix": _or_junk(
            st.lists(st.lists(_or_junk(_rational | _small), min_size=2, max_size=2),
                     min_size=2, max_size=2)
        ),
        "anchor": _or_junk(_phase),
    }
)
_triple = st.lists(_small, min_size=3, max_size=3)
_declared = st.fixed_dictionaries(
    {"charge": _or_junk(_triple)},
    optional={"quotients": _or_junk(st.lists(_or_junk(_triple), max_size=3))},
)
_charge = _or_junk(_pair)
_COMMANDS = {
    "reduce": {"--charge": _charge},
    "act": {"--charge": _charge, "--phase": _or_junk(_phase), "--obj": _or_junk(_object)},
    "phase": {"--charge": _charge},
    "hom": {"--x": _or_junk(_object), "--y": _or_junk(_object)},
    "spherical": {"--obj": _or_junk(_object)},
    "connect": {"--s1": _or_junk(_object), "--s2": _or_junk(_object)},
    "sd": {"--slopes": _or_junk(st.lists(_or_junk(_rational), max_size=4))},
    "tstruct member": {"--t": _or_junk(_tstructure), "--obj": _or_junk(_object)},
    "tstruct truncate": {"--t": _or_junk(_tstructure), "--obj": _or_junk(_object)},
    "tstruct noetherian": {"--t": _or_junk(_tstructure)},
    "tstruct witness": {"--t": _or_junk(_tstructure)},
    "tstruct epichain": {"--cut": _or_junk(_cut), "--charge": _charge},
    "stab solve": {"--c1": _or_junk(_cond), "--c2": _or_junk(_cond)},
    "stab canon": {"--cond": _or_junk(_cond)},
    "stab slice": {"--cond": _or_junk(_cond)},
    "walls": {"--obj": _or_junk(_declared)},
    "scan": {"--obj": _or_junk(_declared)},
    "shadow": {"--obj": _or_junk(_object)},
}


@st.composite
def _cli_call(draw):
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = name.split()
    for flag, values in _COMMANDS[name].items():
        argv.append(f"{flag}={json.dumps(draw(values))}")
    if name == "act":
        argv.append("--word=" + draw(st.sampled_from(["TK", "toS", "sTKTO", "XX", ""])))
    if name == "stab slice":
        argv.append(f"--t={draw(_rational)}")
    if name == "scan":
        for flag in ("--step", "--a-max", "--b-max"):
            argv.append(f"{flag}={draw(_rational)}")
    return argv


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_cli_call())
    def test_every_input_answers_or_is_rejected(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing the flags
                code = exc.code
        assert code in (0, 2, 3), (argv, out.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 3:
            assert "error" in json.loads(out.getvalue())


class TestSdBound:
    @pytest.mark.parametrize("slopes", ['["1/100000000000"]'])
    def test_long_twisting_vector_is_refused(self, capsys, slopes):
        code = main(["sd", "--slopes", slopes])
        captured = capsys.readouterr()
        assert code == 3 and "HNLAB_BOUND" in json.loads(captured.out)["error"]
        assert captured.err == ""

    def test_vector_of_exactly_the_bound_passes(self, capsys, monkeypatch):
        monkeypatch.setenv("HNLAB_BOUND", "5")
        code, data = run_json(capsys, ["sd", "--slopes", '["1/2", "2/3"]'])
        assert code == 0 and len(data["d0"]) == 5
        code, data = run_json(capsys, ["sd", "--slopes", '["1/3", "1/2", "2/3"]'])
        assert code == 3


def _extreme_pair(top, bottom):
    """An object of two extreme pieces at phase 1 of strips top > bottom."""
    pieces = [{"phase": {"dir": [-1, 0], "shift": s}, "jh": [["extreme", 1]], "perfect": False}
              for s in (top, bottom)]
    return json.dumps({"pieces": pieces, "indecomposable": False})


class TestShadowBound:
    # the picture draws one slice per strip between its extreme phases
    @pytest.mark.parametrize("top, bottom", [(0, -100000), (10**400, 0)], ids=["wide", "huge"])
    def test_wide_span_is_refused(self, capsys, top, bottom):
        code = main(["shadow", "--obj", _extreme_pair(top, bottom)])
        captured = capsys.readouterr()
        assert code == 3 and "HNLAB_BOUND" in json.loads(captured.out)["error"]
        assert captured.err == ""

    def test_span_of_exactly_the_bound_passes(self, capsys, monkeypatch):
        monkeypatch.setenv("HNLAB_BOUND", "40")
        code, out = run(capsys, ["shadow", "--obj", _extreme_pair(0, -40)])
        assert code == 0 and out.startswith("<svg ") and out.count("<text") == 43
        monkeypatch.setenv("HNLAB_BOUND", "39")
        code, data = run_json(capsys, ["shadow", "--obj", _extreme_pair(0, -40)])
        assert code == 3 and "HNLAB_BOUND" in data["error"]

    def test_empty_object_is_a_domain_error(self, capsys):
        code, data = run_json(capsys, ["shadow", "--obj", '{"pieces": []}'])
        assert code == 3 and data == {"error": "empty object has no shadow"}


class TestJsonFloats:
    @pytest.mark.parametrize(
        "argv, value",
        [
            (["sd", "--slopes", "[0.1]"], "0.1"),
            (["sd", "--slopes", '["1/2", 1e-300]'], "1e-300"),
            (["stab", "canon", "--cond", '{"matrix":[[0.1,0],[0,1]],"anchor":{"dir":[0,1]}}'], "0.1"),
        ],
        ids=["sd-0.1", "sd-1e-300", "stab-matrix-0.1"],
    )
    def test_float_is_refused(self, capsys, argv, value):
        code = main(argv)
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert code == 3 and value in error and '"p/q"' in error
        assert captured.err == ""

    def test_decimal_flag_is_exact(self, capsys):
        argv = ["scan", "--obj", BUNDLE, "--a-max", "2", "--b-max", "2", "--step"]
        assert run(capsys, argv + ["0.5"]) == run(capsys, argv + ["1/2"])


GOLDEN_CLI = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", GOLDEN_CLI, ids=[c["id"] for c in GOLDEN_CLI])
def test_golden_output(capsys, monkeypatch, case):
    """Every subcommand's stdout and exit code match the recorded ones byte for byte."""
    monkeypatch.delenv("HNLAB_BOUND", raising=False)
    assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out == f"hnlab {hnlab.__version__}\n"


def test_version_matches_pyproject():
    """pyproject.toml declares one version, the package's own (read by a
    regex: Python 3.10 has no tomllib)."""
    text = (pathlib.Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version\s*=\s*"([^"]*)"\s*$', text, re.M) == [hnlab.__version__]


def describe_parser(parser):
    """What a parser declares, without the --help text itself (its usage
    line wraps differently between Python versions)."""
    out = {"description": parser.description, "actions": []}
    for a in parser._actions:
        entry = {
            "option_strings": a.option_strings,
            "dest": a.dest,
            "default": a.default,
            "required": a.required,
            "type": getattr(a.type, "__name__", None),
            "choices": list(a.choices) if a.choices is not None else None,
            "metavar": a.metavar,
            "help": a.help,
        }
        if isinstance(a, argparse._SubParsersAction):
            entry["choice_help"] = [[c.dest, c.help] for c in a._choices_actions]
            entry["subcommands"] = {n: describe_parser(p) for n, p in a.choices.items()}
        out["actions"].append(entry)
    return out


GOLDEN_PARSER = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_parser.json").read_text(encoding="utf-8")
)


def test_parser_golden():
    """Every subcommand, flag, default, type, choice and help string is as recorded."""
    assert describe_parser(build_parser()) == GOLDEN_PARSER


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (
            ["act", "--charge", "[1, 0]"],
            "usage: hnlab act [-h] --word WORD [--charge CHARGE] [--phase PHASE]\n"
            "                 [--obj OBJ] [--in INFILE] [--out OUTFILE]\n"
            "hnlab act: error: the following arguments are required: --word\n",
        ),
        (
            ["scan", "--format", "xml"],
            "usage: hnlab scan [-h] [--obj OBJ] [--step STEP] [--a-max A_MAX]\n"
            "                  [--b-max B_MAX] [--format {json,csv}] [--in INFILE]\n"
            "                  [--out OUTFILE]\n"
            "hnlab scan: error: argument --format: invalid choice: 'xml' "
            "(choose from 'json', 'csv')\n",
        ),
        (
            ["tstruct"],
            "usage: hnlab tstruct [-h] {member,truncate,noetherian,witness,epichain} ...\n"
            "hnlab tstruct: error: the following arguments are required: tcmd\n",
        ),
        (
            ["reduce", "--bogus"],
            "usage: hnlab [-h] [--version]\n"
            "             {reduce,act,phase,hom,spherical,connect,sd,tstruct,stab,walls,scan,shadow,catalog}\n"
            "             ...\n"
            "hnlab: error: unrecognized arguments: --bogus\n",
        ),
        (
            ["tstruct", "member", "--bogus"],
            "usage: hnlab [-h] [--version]\n"
            "             {reduce,act,phase,hom,spherical,connect,sd,tstruct,stab,walls,scan,shadow,catalog}\n"
            "             ...\n"
            "hnlab: error: unrecognized arguments: --bogus\n",
        ),
        (
            ["stab"],
            "usage: hnlab stab [-h] {solve,canon,slice} ...\n"
            "hnlab stab: error: the following arguments are required: scmd\n",
        ),
    ],
    ids=["act-missing-word", "scan-format-xml", "tstruct-bare", "reduce-bogus-flag",
         "tstruct-member-bogus-flag", "stab-bare"],
)
def test_usage_error(capsys, monkeypatch, argv, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == stderr


_SRC = str(pathlib.Path(hnlab.__file__).resolve().parents[1])
_START_UP = """
import json, sys
sys.path.insert(0, {src!r})
from hnlab import cli
try:
    code = cli.main({argv!r})
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("hnlab.") or m in {heavy!r})]))
"""
# stdlib modules that no subcommand but shadow (hashlib, for its ids) needs
_HEAVY = ("dataclasses", "inspect", "hashlib")
_BASE = ["hnlab.charges", "hnlab.cli", "hnlab.serialize"]
_GOLDEN_ARGV = {case["id"]: case["argv"] for case in GOLDEN_CLI}


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (["--version"], 0, []),
        (_GOLDEN_ARGV["phase"], 0, []),
        (_GOLDEN_ARGV["reduce-malformed"], 2, []),
        (_GOLDEN_ARGV["reduce"], 0, ["autoeq", "lifts"]),
        (_GOLDEN_ARGV["act-runs"], 0, ["autoeq", "lifts"]),
        (_GOLDEN_ARGV["act"], 0, ["autoeq", "lifts", "objects"]),
        (_GOLDEN_ARGV["hom"], 0, ["objects"]),
        (_GOLDEN_ARGV["hom-explain"], 0, ["objects"]),
        (_GOLDEN_ARGV["connect"], 0, ["autoeq", "lifts", "objects"]),
        (_GOLDEN_ARGV["catalog"], 0, ["objects"]),
        (_GOLDEN_ARGV["shadow"], 0, ["hashlib", "objects", "render"]),
        (_GOLDEN_ARGV["tstruct-noetherian"], 0, ["objects", "tstruct"]),
        (_GOLDEN_ARGV["tstruct-witness"], 0, ["autoeq", "lifts", "objects", "tstruct"]),
        (_GOLDEN_ARGV["tstruct-witness-surd"], 0, ["objects", "tstruct"]),
        (_GOLDEN_ARGV["tstruct-epichain"], 0, ["objects", "tstruct"]),
        (_GOLDEN_ARGV["stab-canon-int"], 0, ["lifts", "stabcond"]),
        (_GOLDEN_ARGV["scan-csv"], 0, ["multicurve"]),
    ],
    ids=["version", "phase", "malformed-json", "reduce", "act", "act-obj", "hom", "hom-explain",
         "connect", "catalog", "shadow", "tstruct", "tstruct-witness", "tstruct-witness-surd",
         "tstruct-epichain", "stab", "scan"],
)
def test_start_up_imports(argv, code, loaded):
    """A fresh process loads the layer modules its subcommand calls and no
    other; of the heavier stdlib modules, only shadow loads hashlib."""
    script = _START_UP.format(src=_SRC, argv=argv, heavy=_HEAVY)
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    expected = sorted(_BASE + [m if m in _HEAVY else "hnlab." + m for m in loaded])
    assert json.loads(proc.stdout.splitlines()[-1]) == [code, expected]


def test_bare_import_loads_no_layer():
    script = (f"import json, sys; sys.path.insert(0, {_SRC!r}); import hnlab.cli; "
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'hnlab')))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["hnlab"] + _BASE


def _leaves(table, prefix=()):
    for name, (_, target, _) in table.items():
        if isinstance(target, dict):
            yield from _leaves(target, prefix + (name,))
        else:
            yield prefix + (name,)


def _first_case_per_leaf():
    """The first golden case of each subcommand, which must all have one."""
    first = {}
    for case in GOLDEN_CLI:
        argv = case["argv"]
        first.setdefault(tuple(argv[:2] if argv[0] in ("tstruct", "stab") else argv[:1]), case)
    assert sorted(first) == sorted(_leaves(COMMANDS))
    return list(first.values())


_RUN_MAIN = "import sys; sys.path.insert(0, {src!r}); from hnlab import cli; sys.exit(cli.main({argv!r}))"


@pytest.mark.parametrize("case", _first_case_per_leaf(), ids=lambda c: c["id"])
def test_golden_output_in_a_fresh_process(monkeypatch, case):
    """Each subcommand in its own interpreter, where no other layer has been
    imported before it, matches its golden exit code and stdout."""
    monkeypatch.delenv("HNLAB_BOUND", raising=False)
    script = _RUN_MAIN.format(src=_SRC, argv=case["argv"])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          encoding="utf-8", timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (case["exit"], case["stdout"], "")
