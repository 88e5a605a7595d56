"""cli-mix: every CLI subcommand, one process per call, on small seeded inputs.

Each cycle runs reduce, act, phase, hom, spherical, connect, sd, the five
tstruct subcommands, the three stab subcommands, walls, scan, shadow and
catalog once each, in a shuffled order.  JSON inputs arrive inline, as a
file path or as one document through ``--in -``, chosen per call.  Some
calls produce large documents: ``scan`` at HNLAB_BOUND cells, ``witness
--length 10000`` and ``catalog``.  Interpreter start, imports, argparse and
JSON dominate here, so an import or serialize change shows on this workload
and on no other.

The traced run calls ``hnlab.cli.main`` in process with stdin and stdout
redirected, so that decode, compute and encode separate into spans.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import calib
import oracle as O
import wl_object as W
from harness import OUT, ROOT, Op, child_env
from hnlab import objects, render, serialize, stabcond, tstruct
from hnlab.charges import Phase, RationalCut
from hnlab.multicurve import DeclaredObject, MultiCharge

NAME = "cli-mix"
SETUP = "import hnlab.cli\nhnlab.cli.build_parser()"
# Cycles per second of --seconds, untraced (one process per call) and traced
# (in process, every call twice, once under the tracer).
CYCLES_PER_S = 0.2
TRACED_CYCLES_PER_S = 0.35
CLI_LAYER = True
# Every call starts an interpreter, so timings are calibrated against a bare
# interpreter start (sampled every 0.3 s) rather than in-process arithmetic.
REFERENCE = (calib.reference_process, calib.NOMINAL_PROC_S, 0.3)

SCAN_BOUND = 2500
SCAN_OBJECT = DeclaredObject(MultiCharge(2, 1, 1), (MultiCharge(1, 1, 0), MultiCharge(3, 0, 1)))
WITNESS_LENGTH = 10000
_IN_DIR = os.path.join(OUT, "cli-inputs")
_FRAME = re.compile(r'File ".*[/\\]hnlab[/\\](\w+)\.py"')


class CliFailure(Exception):
    """Nonzero exit of one CLI call, with the failing layer and error kind."""

    def __init__(self, code, layer, kind, text):
        super().__init__(f"exit {code}: {text[-300:]}")
        self.layer, self.kind = layer, kind


def _failure(code, out, err):
    frames = _FRAME.findall(err)
    if frames:
        last = err.strip().splitlines()[-1]
        return CliFailure(code, frames[-1], last.split(":")[0].strip(), err)
    return CliFailure(code, "cli", f"exit{code}", out + err)


def _subprocess(argv, stdin, env):
    proc = subprocess.run([sys.executable, "-m", "hnlab.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=dict(child_env(), **env),
                          cwd=ROOT, timeout=120)
    if proc.returncode:
        raise _failure(proc.returncode, proc.stdout, proc.stderr)
    return proc.stdout


def _inprocess(argv, stdin, env):
    import hnlab.cli

    saved_io = sys.stdin, sys.stdout
    saved_env = {k: os.environ.get(k) for k in env}
    sys.stdin, sys.stdout = io.StringIO(stdin or ""), io.StringIO()
    os.environ.update(env)
    try:
        code = hnlab.cli.main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved_io
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    if code:
        raise _failure(code, out, "")
    return out


def _pass_inputs(mode, serial, flags):
    """Argv and stdin passing JSON inputs inline, as file paths or as one
    --in - document."""
    if mode == "stdin":
        return ["--in", "-"], json.dumps(flags)
    argv = []
    for key, data in flags.items():
        text = json.dumps(data)
        if mode == "file":
            os.makedirs(_IN_DIR, exist_ok=True)
            path = os.path.join(_IN_DIR, f"{serial}-{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            text = path
        argv += [f"--{key}", text]
    return argv, None


def _cond(rng):
    w = W.random_word(rng, 6)
    toks = O.runs(w)
    plane = O.word_plane(toks)
    lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    g = stabcond.GLPlusTilde(tuple(tuple(lam * e for e in r) for r in plane),
                             Phase(*O.act_phase(toks, O.HALF)))
    return toks, lam, plane, serialize.encode_gl(g)


def _frac_pair(z):
    return (Fraction(z["re"]), Fraction(z["im"]))


def _case(name, rng):
    """(argv before the JSON flags, JSON flags, env, oracle on the output text)."""
    if name == "reduce":
        rk, deg = rng.randint(-1000, 1000), rng.randint(1, 1000)

        def check(out):
            d = json.loads(out)
            x, y = O.apply(O.word_plane(O.runs(d["word"])), (-deg, rk))
            O.expect([y, -x] == d["result"] and y == 0 and abs(x) == math.gcd(rk, deg),
                     "reduce result")
        return ["reduce"], {"charge": [rk, deg]}, {}, check
    if name == "act":
        w, x = W.random_word(rng, 6), W.random_object(rng, 3)
        p = W.small_phase(rng)
        rk, deg = rng.randint(-9, 9), rng.randint(-9, 9)
        toks = O.runs(w)

        def check(out):
            d = json.loads(out)
            nx, ny = O.apply(O.word_plane(toks), (-deg, rk))
            O.expect(d["charge"] == [ny, -nx], "act charge")
            q = O.act_phase(toks, p)
            O.expect(d["phase"] == {"dir": list(q[0]), "shift": q[1]}, "act phase")
            O.check_transform(serialize.decode_object(d["obj"]), x, toks)
        return (["act", "--word", "".join(w)],
                {"charge": [rk, deg], "phase": {"dir": list(p[0]), "shift": p[1]},
                 "obj": serialize.encode_object(x)}, {}, check)
    if name == "phase":
        rk, deg = rng.randint(-50, 50), rng.randint(-50, 50) or 1

        def check(out):
            d = json.loads(out)
            q = O.phase_of_charge(rk, deg)
            slope = "inf" if rk == 0 else serialize.encode_fraction(Fraction(deg, rk))
            O.expect(d == {"phase": {"dir": list(q[0]), "shift": q[1]}, "slope": slope,
                           "central_charge": [-deg, rk], "mass_squared": rk * rk + deg * deg},
                     "phase data")
        return ["phase"], {"charge": [rk, deg]}, {}, check
    if name == "hom":
        x, y = W.random_object(rng), W.random_object(rng)

        def check(out):
            d = json.loads(out)
            O.check_hom(SimpleNamespace(kind=d["verdict"], rule=d["rule"]), x, y)
        return ["hom"], {"x": serialize.encode_object(x), "y": serialize.encode_object(y)}, {}, check
    if name == "spherical":
        x = W.random_object(rng, 2)

        def check(out):
            d = json.loads(out)
            stable_smooth = (len(x.pieces) == 1 and len(x.pieces[0].jh.entries) == 1
                             and x.pieces[0].jh.entries[0][1] == 1
                             and x.pieces[0].jh.entries[0][0].kind == "smooth")
            O.expect(d["spherical"] == stable_smooth, "spherical verdict")
        return ["spherical"], {"obj": serialize.encode_object(x)}, {}, check
    if name == "connect":
        p1, p2 = W.small_phase(rng), W.small_phase(rng)
        ids = ("x", rng.choice(("x", "y")))
        s1 = serialize.encode_object(W.stable_object(p1, ids[0]))
        s2 = serialize.encode_object(W.stable_object(p2, ids[1]))

        def check(out):
            d = json.loads(out)
            O.expect(O.act_phase(O.runs(d["word"]), p1) == p2, "connecting word")
            O.expect(d["relabel"] == (None if ids[0] == ids[1] else list(ids)), "relabel")
        return ["connect"], {"s1": s1, "s2": s2}, {}, check
    if name == "sd":
        slopes = W.random_slopes(rng)

        def check(out):
            d = json.loads(out)
            O.check_sd((d["d0"], serialize.decode_object(d["ledger"])), slopes)
            O.expect(d["charge"] == [len(d["d0"]), 1 + sum(d["d0"])], "sd charge")
        return ["sd"], {"slopes": [serialize.encode_fraction(s) for s in slopes]}, {}, check
    if name in ("member", "truncate", "noetherian"):
        x = W.random_object(rng)
        t = W.random_tstructure(rng, x)
        flags = {"t": serialize.encode_tstructure(t)}
        if name == "noetherian":
            empty = not t.minus.include_extreme and (
                t.minus.smooth_mode == "none" or (t.minus.smooth_mode == "only" and not t.minus.smooth_ids))
            want = isinstance(t.cut, RationalCut) and empty
            return (["tstruct", name], flags, {},
                    lambda out: O.expect(json.loads(out) == {"noetherian": want}, "noetherian"))
        flags["obj"] = serialize.encode_object(x)
        if name == "member":
            return (["tstruct", name], flags, {}, lambda out: O.expect(
                json.loads(out)["membership"] == sorted(O.membership(t, x)), "membership"))

        def check(out):
            d = json.loads(out)
            O.check_truncate((serialize.decode_object(d["below"]),
                              serialize.decode_object(d["above"])), t, x)
        return ["tstruct", name], flags, {}, check
    if name == "witness":
        ph = Phase(*W.small_phase(rng))
        mode = rng.choice(("all", "only"))
        ids = frozenset({"x"}) if mode == "only" else frozenset()
        spec = tstruct.StableSubsetSpec(rng.random() < 0.5, mode, ids)
        t = tstruct.TStructure(RationalCut(ph), spec)

        def check(out):
            d = json.loads(out)
            O.expect(len(d["charges"]) == WITNESS_LENGTH, "witness length")
            step = 1 if d["kind"] == "smooth-chain" else 2
            O.expect(d["charges"] == [[1, step * m] for m in range(1, WITNESS_LENGTH + 1)],
                     "witness charges")
            O.expect(O.act_phase(O.runs(d["conjugation"]), O.as_phase(ph)) == O.ONE,
                     "conjugation does not send the cut to 1")
        return (["tstruct", "witness", "--length", str(WITNESS_LENGTH)],
                {"t": serialize.encode_tstructure(t)}, {}, check)
    if name == "epichain":
        e, cut, _ = W.epi_input(rng)
        n = rng.randint(4, 16)

        def check(out):
            chain = [serialize.decode_charge(c) for c in json.loads(out)["chain"]]
            O.check_epi_chain(chain, e, cut, n)
        return (["tstruct", "epichain", "--length", str(n)],
                {"cut": serialize.encode_cut(cut), "charge": [e.rk, e.deg]}, {}, check)
    if name == "solve":
        (t1, l1, p1, c1), (t2, l2, p2, c2) = _cond(rng), _cond(rng)

        def check(out):
            d = json.loads(out)
            want = [[serialize.encode_fraction(l2 / l1 * e) for e in row]
                    for row in O.mul(p2, O.adjugate(p1))]
            O.expect(d["matrix"] == want, "solution matrix")
            q = O.act_phase(O.invert_runs(t1) + t2, O.HALF)
            O.expect(d["anchor"] == {"dir": list(q[0]), "shift": q[1]}, "solution anchor")
        return ["stab", "solve"], {"c1": c1, "c2": c2}, {}, check
    if name == "canon":
        toks, lam, plane, cond = _cond(rng)

        def check(out):
            d = json.loads(out)
            O.check_canonical((_frac_pair(d["tau"]), _frac_pair(d["scale"]),
                               tuple(map(tuple, d["reducer"]))), lam, plane)
        return ["stab", "canon"], {"cond": cond}, {}, check
    if name == "slice":
        toks, lam, plane, cond = _cond(rng)
        t = Fraction(rng.randint(-7, 8), 4)

        def check(out):
            q = O.act_phase(toks, O.phase_of_value(t))
            O.expect(json.loads(out)["phase"] == {"dir": list(q[0]), "shift": q[1]}, "slice")
        return ["stab", "slice", f"--t={serialize.encode_fraction(t)}"], {"cond": cond}, {}, check
    if name in ("walls", "scan"):
        # scans are the slowest calls, so the latency tail is theirs; one fixed
        # object (the rank (1,1) degree 2 bundle) keeps their cost alike
        obj = SCAN_OBJECT if name == "scan" else W.random_declared(rng)
        flags = {"obj": serialize.encode_declared(obj)}
        if name == "walls":
            def check(out):
                got = [{"quotient": serialize.decode_multicharge(w["quotient"]), "wall": w["wall"]}
                       for w in json.loads(out)]
                O.check_walls(got, obj)
            return ["walls"], flags, {}, check
        side = math.isqrt(SCAN_BOUND)  # a square grid of exactly HNLAB_BOUND cells
        return (["scan", "--step", f"1/{side // 2}", "--a-max", "2", "--b-max", "2"], flags,
                {"HNLAB_BOUND": str(SCAN_BOUND)},
                lambda out: O.check_scan(json.loads(out), obj, Fraction(2, side), 2, 2))
    if name == "shadow":
        if rng.random() < 0.5:
            cname = rng.choice(sorted(objects.catalog()))
            x, head, flags = objects.catalog()[cname], ["shadow", "--name", cname], {}
        else:
            x = W.random_object(rng, 4)
            head, flags = ["shadow"], {"obj": serialize.encode_object(x)}

        def check(out):
            O.check_svg(out, x)
            O.expect(out == render.shadow_svg(x), "shadow differs from the library's")
        return head, flags, {}, check

    def check(out):
        d = json.loads(out)
        cat = objects.catalog()
        O.expect(sorted(d) == sorted(cat), "catalog names")
        for key, x in cat.items():
            rk = deg = 0
            for p in x.pieces:
                r, g = O.charge_of_phase(O.as_phase(p.phase), p.jh.length())
                rk, deg = rk + r, deg + g
            O.expect(d[key]["charge"] == [rk, deg], f"catalog charge of {key}")
            O.expect(d[key]["object"] == serialize.encode_object(x), f"catalog object {key}")
    return ["catalog"], {}, {}, check


# scan runs three times a cycle, so that the latency tail of a run is the
# scan cluster rather than the boundary between two subcommands.
COMMANDS = ("reduce", "act", "phase", "hom", "spherical", "connect", "sd", "member",
            "truncate", "noetherian", "witness", "epichain", "solve", "canon", "slice",
            "walls", "scan", "scan", "scan", "shadow", "catalog")


# Runs a command and prints its peak resident memory in KiB.  A child starts
# with the peak memory of the process it was forked from, so CLI calls are
# measured from this small launcher, not from the benchmark process.
_RSS_LAUNCHER = """import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _peak_rss(argv, stdin, env):
    proc = subprocess.run([sys.executable, "-c", _RSS_LAUNCHER, sys.executable, "-m", "hnlab.cli",
                           *argv], input=stdin, capture_output=True, text=True,
                          env=dict(child_env(), **env), cwd=ROOT, timeout=120, check=True)
    return int(proc.stdout) / 1024.0


def cli_peak_rss_mb(seed) -> float:
    """Largest peak resident memory of one CLI process, over the calls that
    write large documents in the run's first cycle, repeated once after the
    timed loop."""
    ops = cycle(random.Random(f"{NAME}:{seed}:0:0"), False, run=_peak_rss)
    return max(op.call() for op in ops if op.family in ("scan", "witness", "catalog"))


def cycle(rng, tiny, inprocess=False, run=None):
    names = list(COMMANDS)
    rng.shuffle(names)
    run = run or (_inprocess if inprocess else _subprocess)
    for serial, name in enumerate(names):
        head, flags, env, check = _case(name, rng)
        tail, stdin = _pass_inputs(rng.choice(("inline", "file", "stdin")), serial, flags)
        argv = head + tail
        yield Op(name, lambda argv=argv, stdin=stdin, env=env: run(argv, stdin, env), check)
