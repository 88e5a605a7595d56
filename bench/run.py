#!/usr/bin/env python3
"""Run one hnlab benchmark workload and print its metrics.

    python3 bench/run.py --workload twist-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a fuller
record of the run (raw and calibrated values, reference rate, Python
version, commit, nproc, seed, failures by layer and type) is written under
``.bench_out/``.  ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

WORKLOADS = {"twist-large": "wl_twist", "object-small": "wl_object", "cli-mix": "wl_cli"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest input sizes and a single cycle, for the self-check")
    # an untraced run starts itself once per part, one part after another
    ap.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "hnlab", "__init__.py")):
        print("bench: no hnlab sources under src/ in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import harness

    return harness.main(importlib.import_module(WORKLOADS[args.workload]), args)


if __name__ == "__main__":
    sys.exit(main())
