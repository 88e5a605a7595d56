#!/usr/bin/env python3
"""Fast smoke check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload of BENCHMARK.json at its tiny size, once untraced and
once traced, and asserts that each result line carries exactly the metrics
BENCHMARK.json names, with their units, that every oracle passed, and that
in a directory holding only BENCHMARK.json and bench/ the benchmark exits
nonzero without printing a result.  Takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def fail(msg: str):
    print(f"selfcheck: FAIL: {msg}")
    sys.exit(1)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_result(name, trace, proc, want):
    if proc.returncode != 0:
        fail(f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name}: result keys {sorted(res)}")
    if res["correct"] is not True:
        fail(f"{name} --trace {trace}: oracle rejected results:\n{proc.stdout}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]):
        fail(f"{name}: attempted/failed {res['attempted']}/{res['failed']}")
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        fail(f"{name} --trace {trace}: metrics {got} differ from BENCHMARK.json {want}")
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)) or isinstance(v["value"], bool):
            fail(f"{name}: metric {k} has no numeric value")
    print(f"selfcheck: {name} trace={trace} ok "
          f"({res['attempted']} attempted, {res['failed']} failed)")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(["--workload", "twist-large", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("without src/ the benchmark must exit nonzero and print no result")
    print("selfcheck: bare directory exits", proc.returncode)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for wl in spec["workloads"]:
            proc = run(["--workload", wl["name"], "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--tiny"])
            check_result(wl["name"], trace, proc, want)
    check_bare_directory()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
