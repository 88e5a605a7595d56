"""Closed-loop runner, metrics and the run record.

One client, one call at a time: the next call starts when the previous one
returns, which is how a script, a notebook or a shell loop drives hnlab.  A
workload is a module whose ``cycle(rng, tiny, inprocess)`` yields ``Op``s;
their inputs are generated lazily between timed calls, and every result is
checked by its oracle after the clock has stopped.  A run does a fixed
number of whole cycles, ``--seconds`` times the workload's pinned
``CYCLES_PER_S`` (about what a 2-core host completes per second), so the same
seed always gives the same operations, the same attempted and failed counts
and the same mix of operation kinds; a slower host takes longer instead of
doing less.  An untraced run spreads its cycles over ``PARTS`` worker
processes started one after another; a traced run is one process.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
from array import array
from collections import Counter
from statistics import median
from time import perf_counter

import calib
from oracle import OracleError

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_CHILDREN = 7
PARTS = 3

END_TO_END = {"ops_per_s": "1/s", "op_p50_us": "us", "op_tail_us": "us",
              "setup_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("charges", "lifts", "autoeq", "stabcond", "objects", "tstruct",
          "multicurve", "render", "serialize")
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
for _name, _unit in (
        ("lifts.fail", "count"), ("lifts.ok_ratio", "ratio"),
        ("autoeq.letters_in", "count"), ("autoeq.letters_out", "count"),
        ("autoeq.max_bits", "bits"), ("autoeq.fail", "count"), ("stabcond.fail", "count"),
        ("objects.hom_decided_ratio", "ratio"), ("tstruct.fail", "count"),
        ("tstruct.epi_members_ratio", "ratio"), ("multicurve.cells", "count"),
        ("render.bytes_out", "bytes"), ("serialize.bytes_in", "bytes"),
        ("serialize.bytes_out", "bytes"), ("cli.calls", "count"), ("cli.import_s", "s"),
        ("cli.main_s", "s"), ("trace.overhead_ratio", "ratio")):
    PER_LAYER[_name] = _unit


class Op:
    """One timed call and the oracle that checks its result."""

    __slots__ = ("family", "call", "check", "result")

    def __init__(self, family, call, check):
        self.family = family
        self.call = call
        self.check = check
        self.result = None


def failing_layer(exc) -> str:
    """Module of the innermost hnlab frame the exception passed through;
    "bench" when it never entered hnlab, which is a fault of the benchmark."""
    layer = getattr(exc, "layer", None)
    if layer:
        return layer
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("hnlab."):
            layer = name[len("hnlab."):]
        tb = tb.tb_next
    return layer


class Pass:
    """Per-operation records of the untraced or the traced half of a run."""

    def __init__(self):
        # compact per-operation arrays, so that the benchmark's own memory
        # barely grows with the number of operations a run completes
        self.t, self.raw, self.ok, self.fam = array("d"), array("d"), bytearray(), array("H")
        self.families: list[str] = []
        self._fam_index: dict[str, int] = {}
        self.fails = Counter()
        self.rejected: list[str] = []
        self.n_rejected = 0
        self.bench_errors: list[str] = []
        self.selfs, self.main_raw = [], []
        self.first_cycle = 0

    def add(self, t0, t1, op, exc, traced):
        self.t.append(0.5 * (t0 + t1))
        self.raw.append(t1 - t0)
        if op.family not in self._fam_index:
            self._fam_index[op.family] = len(self.families)
            self.families.append(op.family)
        self.fam.append(self._fam_index[op.family])
        ok = False
        if exc is None:
            try:
                op.check(op.result)
                ok = True
            except Exception as e:  # an oracle that raises has rejected the result
                self.n_rejected += 1
                if len(self.rejected) < 20:
                    kind = "" if isinstance(e, OracleError) else f"oracle raised {type(e).__name__}: "
                    self.rejected.append(f"{op.family}: {kind}{e}")
        else:
            layer = failing_layer(exc)
            self.fails[(layer, getattr(exc, "kind", None) or type(exc).__name__)] += 1
            if layer == "bench" and len(self.bench_errors) < 20:
                self.bench_errors.append(f"{op.family}: {type(exc).__name__}: {exc}")
        self.ok.append(ok)
        if traced is not None:
            self.selfs.append(traced[0])
            self.main_raw.append(traced[1])


def cycle_count(wl, seconds, traced=False) -> int:
    """Whole cycles one process runs for `seconds` of a run's time."""
    rate = wl.TRACED_CYCLES_PER_S if traced else wl.CYCLES_PER_S
    return max(1, round(seconds * rate))


def run_loop(wl, seed, cycles, tiny, tracer=None, part=0):
    cal = calib.Calibrator(*getattr(wl, "REFERENCE", ()))
    passes = {False: Pass(), True: Pass()} if tracer else {False: Pass()}
    req = 0
    for k in range(cycles):
        for traced, ps in passes.items():
            if traced:
                tracer.install()  # wrappers exist only during the traced pass
            rng = random.Random(f"{wl.NAME}:{seed}:{part}:{k}")
            for op in wl.cycle(rng, tiny, inprocess=tracer is not None):
                cal.maybe_sample()
                if traced:
                    tracer.begin(req)
                t0 = perf_counter()
                try:
                    op.result = op.call()
                    exc = None
                except Exception as e:  # every failure is counted by type and layer
                    exc = e
                t1 = perf_counter()
                ps.add(t0, t1, op, exc, tracer.end() if traced else None)
                req += 1
            if traced:
                tracer.uninstall()
            if k == 0:
                ps.first_cycle = len(ps.t)
    cal.sample()
    return cal, passes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_SETUP_CHILD = """import time
t0 = time.perf_counter()
{setup}
t1 = time.perf_counter()
import json, sys
sys.path.insert(0, {bench!r})
import calib
calib.reference_work()
print(json.dumps([t1 - t0, sorted(calib.time_reference() for _ in range(5))[2]]))
"""


def measure_setup(wl):
    """Median over fresh interpreters of the time from their first statement
    until the workload's first operation could start, calibrated by the
    reference loop run in the same child just after.  One extra child runs
    first, uncounted, so that byte-code caches exist as they do for users."""
    code = _SETUP_CHILD.format(setup=wl.SETUP, bench=BENCH)
    raw, cal = [], []
    for i in range(SETUP_CHILDREN + 1):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        t, ref = json.loads(out.stdout.strip().splitlines()[-1])
        if i:
            raw.append(t)
            cal.append(t * calib.NOMINAL_REF_S / ref)
    return median(cal), median(raw)


def nearest_rank(sorted_vals, p):
    idx = max(0, math.ceil(p / 100 * len(sorted_vals)) - 1)
    return sorted_vals[idx], len(sorted_vals) - idx - 1


def tail_percentile(n_min: int) -> float:
    """Highest percentile, in tenths, with at least ten samples beyond it in
    a run whose cycles each hold as many operations as its first."""
    return max(50.0, math.floor(1000 * (1 - 10 / n_min)) / 10)


def latency_metrics(samples, n_min):
    """Calibrated and raw throughput, median and tail latency."""
    pct = tail_percentile(n_min)
    out = {}
    for label in ("cal", "raw"):
        srt = sorted(samples[label])
        out[label] = {"ops_per_s": sum(samples["ok"]) / sum(srt),
                      "op_p50_us": median(srt) * 1e6,
                      "op_tail_us": nearest_rank(srt, pct)[0] * 1e6}
    tail, beyond = nearest_rank(sorted(samples["cal"]), pct)
    top = Counter(f for f, v in zip(samples["fam"], samples["cal"]) if v > tail)
    out["tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": len(samples["cal"]),
                   "families_beyond": dict(top.most_common())}
    return out


def layer_metrics(tracer, passes, cal, cli_import_s):
    traced, plain = passes[True], passes[False]
    fac = [cal.factor(t) for t in traced.t]
    selfs = Counter()
    for f, s in zip(fac, traced.selfs):
        for layer, v in s.items():
            selfs[layer] += v * f
    calls, _ = tracer.layer_counts()
    fails = Counter()
    for (layer, _kind), n in traced.fails.items():
        fails[layer] += n
    c = tracer.counters
    lift_n, lift_f = tracer.function_counts("lifts.lift_phase")
    hom_n, _ = tracer.function_counts("objects.hom_verdict")
    main_n, _ = tracer.function_counts("cli.main")
    plain_s = sum(r * cal.factor(t) for r, t in zip(plain.raw, plain.t))
    traced_s = sum(r * f for r, f in zip(traced.raw, fac))
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = selfs[layer]
    for layer in ("lifts", "autoeq", "stabcond", "tstruct"):
        m[f"{layer}.fail"] = fails[layer]
    m["lifts.ok_ratio"] = (lift_n - lift_f) / lift_n if lift_n else 0.0
    for key in ("autoeq.letters_in", "autoeq.letters_out", "autoeq.max_bits",
                "multicurve.cells", "render.bytes_out", "serialize.bytes_in",
                "serialize.bytes_out"):
        m[key] = c[key]
    m["objects.hom_decided_ratio"] = c["objects.hom_decided"] / hom_n if hom_n else 0.0
    req = c["tstruct.epi_requested"]
    m["tstruct.epi_members_ratio"] = c["tstruct.epi_returned"] / req if req else 0.0
    m["cli.calls"] = main_n
    m["cli.import_s"] = cli_import_s
    m["cli.main_s"] = sum(f * r for f, r in zip(fac, traced.main_raw))
    m["trace.overhead_ratio"] = traced_s / plain_s
    return m, {"function_calls": dict(zip(tracer.names, tracer.calls)),
               "function_fails": {n: f for n, f in zip(tracer.names, tracer.fails) if f},
               "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}


def commit_id() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _part_path(wl, seed, part):
    return os.path.join(OUT, f"{wl.NAME}-seed{seed}-part{part}.json")


def worker(wl, args) -> int:
    """Run one part of an untraced run and write its samples for the parent."""
    cycles = 1 if args.tiny else cycle_count(wl, args.seconds)
    cal, passes = run_loop(wl, args.seed, cycles, args.tiny, part=args.part)
    rss = peak_rss_mb()
    ps = passes[False]
    data = {
        "cal": [r * cal.factor(t) for r, t in zip(ps.raw, ps.t)], "raw": list(ps.raw),
        "ok": list(ps.ok), "fam": [ps.families[i] for i in ps.fam],
        "fails": [[layer, kind, n] for (layer, kind), n in ps.fails.items()],
        "n_rejected": ps.n_rejected, "rejected": ps.rejected, "bench_errors": ps.bench_errors,
        "first_cycle": ps.first_cycle, "cycles": cycles, "ref_rate": cal.ref_rate(),
        "ref_samples": len(cal.durs), "reference": cal.reference.__name__,
        "nominal": cal.nominal, "rss": rss,
    }
    with open(_part_path(wl, args.seed, args.part), "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return 0


def run_parts(wl, args):
    """Untraced run: PARTS worker processes, one after another, each running
    an equal share of the cycles.  A process's speed relative to the reference
    loop varies by a few percent from one process to the next; pooling the
    samples of several processes averages that out."""
    parts = 1 if args.tiny else PARTS
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", wl.NAME,
           "--seed", str(args.seed), "--seconds", str(args.seconds / parts),
           "--trace", "0"] + (["--tiny"] if args.tiny else [])
    for part in range(parts):
        subprocess.run(cmd + ["--part", str(part)], cwd=ROOT, check=True, timeout=600,
                       stdout=subprocess.DEVNULL)
    # Load the parts only now: a process starts with the peak memory of its
    # parent at the fork, so this process stays lean while it starts workers.
    data = []
    for part in range(parts):
        with open(_part_path(wl, args.seed, part), encoding="utf-8") as fh:
            data.append(json.load(fh))
    merged = {key: [v for d in data for v in d[key]] for key in ("cal", "raw", "ok", "fam")}
    fails = Counter()
    for d in data:
        for layer, kind, n in d["fails"]:
            fails[(layer, kind)] += n
    n_min = len(merged["cal"]) if args.tiny else sum(d["cycles"] * d["first_cycle"] for d in data)
    stats = {
        "fails": fails, "n_rejected": sum(d["n_rejected"] for d in data),
        "rejected": [r for d in data for r in d["rejected"]],
        "bench_errors": [e for d in data for e in d["bench_errors"]],
        "record": {"parts": parts, "cycles": [d["cycles"] for d in data],
                   "reference": data[0]["reference"], "nominal_ref_s": data[0]["nominal"],
                   "ref_rate_per_s": [d["ref_rate"] for d in data],
                   "ref_samples": sum(d["ref_samples"] for d in data)},
        "rss": wl.cli_peak_rss_mb(args.seed) if wl.CLI_LAYER else max(d["rss"] for d in data),
    }
    return merged, n_min, stats


def main(wl, args) -> int:
    os.makedirs(OUT, exist_ok=True)
    if args.part is not None:
        return worker(wl, args)
    setup = measure_setup(wl) if not args.trace or wl.CLI_LAYER else None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        try:
            cycles = 1 if args.tiny else cycle_count(wl, args.seconds, traced=True)
            cal, passes = run_loop(wl, args.seed, cycles, args.tiny, tracer)
        finally:
            tracer.uninstall()
        fails = sum((p.fails for p in passes.values()), Counter())
        ok = sum(sum(p.ok) for p in passes.values())
        attempted = sum(len(p.ok) for p in passes.values())
        n_rejected = sum(p.n_rejected for p in passes.values())
        rejected = [r for p in passes.values() for r in p.rejected]
        bench_errors = [e for p in passes.values() for e in p.bench_errors]
        run_info = {"parts": 1, "cycles": cycles, "reference": cal.reference.__name__,
                    "nominal_ref_s": cal.nominal, "ref_rate_per_s": cal.ref_rate(),
                    "ref_samples": len(cal.durs)}
    else:
        samples, n_min, st = run_parts(wl, args)
        fails, n_rejected = st["fails"], st["n_rejected"]
        rejected, bench_errors, run_info = st["rejected"], st["bench_errors"], st["record"]
        ok, attempted = sum(samples["ok"]), len(samples["ok"])
    failed = attempted - ok
    correct = n_rejected == 0 and not bench_errors
    record = {
        "workload": wl.NAME, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": bool(args.tiny), "python": platform.python_version(),
        "commit": commit_id(), "nproc": os.cpu_count(), **run_info,
        "attempted": attempted, "failed": failed, "rejected": n_rejected,
        "fail_share": failed / attempted,
        "failures": {f"{layer}:{kind}": n for (layer, kind), n in sorted(fails.items())},
        "rejections": rejected[:20], "bench_errors": bench_errors[:20],
    }
    if args.trace:
        m, detail = layer_metrics(tracer, passes, cal, setup[0] if setup else 0.0)
        metrics = {k: {"value": m[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        record["trace_detail"] = detail
        tracer.write_spans(os.path.join(OUT, f"{wl.NAME}-seed{args.seed}.spans.jsonl"),
                           cal.times[0])
    else:
        lm = latency_metrics(samples, n_min)
        values = dict(lm["cal"], setup_s=setup[0], peak_rss_mb=st["rss"])
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
        record["raw"] = dict(lm["raw"], setup_s=setup[1])
        record["tail"] = lm["tail"]
        fams = {}
        for fam, good, c in zip(samples["fam"], samples["ok"], samples["cal"]):
            f = fams.setdefault(fam, {"n": 0, "failed": 0, "cal_s": 0.0})
            f["n"] += 1
            f["failed"] += not good
            f["cal_s"] += c
        record["families"] = fams
    record["metrics"] = metrics
    path = os.path.join(OUT, f"{wl.NAME}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shown = " | ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    if not args.trace:
        shown += f" | fail_share={failed / attempted:.6g} ratio ({failed}/{attempted})"
        shown += f" | tail=p{record['tail']['percentile']} ({record['tail']['samples_beyond']} beyond)"
    print(f"hnlab bench {wl.NAME} seed={args.seed}: {shown}")
    if not correct:
        print("oracle rejections / benchmark errors:", (rejected + bench_errors)[:10])
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
