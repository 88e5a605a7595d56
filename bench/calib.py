"""Host-speed calibration by an interleaved stdlib reference loop.

The speed of a small shared host drifts by tens of percent between runs of
identical code, and neither CPU time nor the minimum over repeats removes
that drift.  The harness therefore runs a fixed reference loop of Fraction
and int arithmetic every ``REF_EVERY_S`` seconds of elapsed time, between
operations, and scales every measured duration by
``NOMINAL_REF_S / (local reference time)``.  Calibrated seconds are what the
operation would have taken on a host where the reference loop takes exactly
``NOMINAL_REF_S``.  The loop uses no hnlab code, so no change to the library
can move it.
"""

from __future__ import annotations

import subprocess
import sys
import time
from bisect import bisect_left
from fractions import Fraction
from statistics import median

# Pinned nominal durations, in seconds, of one reference_work() call and of
# one reference_process() call: their medians on a 2-core x86-64 host under
# Python 3.11.  Changing either rescales every calibrated time, so they stay
# fixed across commits.
NOMINAL_REF_S = 0.0016
NOMINAL_PROC_S = 0.09

# Elapsed time between reference samples, and the half-width (in samples)
# of the running median that smooths them.
REF_EVERY_S = 0.1
SMOOTH = 5

_MOD = (1 << 521) - 1


def reference_work():
    """Fixed stdlib work: bounded-denominator Fraction sums and 521-bit squaring."""
    f = Fraction(0)
    x = 3
    for i in range(1, 361):
        f += Fraction(i % 7 + 1, i % 11 + 2)
        x = x * x % _MOD
    return f, x


def reference_process():
    """Start a bare interpreter that imports the stdlib modules hnlab's CLI
    uses.  Calls that each start a process track this cost, not in-process
    arithmetic, so the CLI workload calibrates against it."""
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, fractions, json"],
                   check=True, capture_output=True)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Calibrator:
    """Reference samples over one run, and the scale factor at any instant."""

    def __init__(self, reference=reference_work, nominal=NOMINAL_REF_S, every=REF_EVERY_S):
        self.reference, self.nominal, self.every = reference, nominal, every
        for _ in range(3):  # warm caches before the first sample
            reference()
        self.times: list[float] = []
        self.durs: list[float] = []
        self._smoothed: list[float] = []
        self._last = float("-inf")
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.durs.append(t1 - t0)
        self._last = t1
        self._smoothed = []

    def maybe_sample(self):
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def factor(self, t: float) -> float:
        """Nominal over the running-median reference time nearest to t."""
        if not self._smoothed:
            n = len(self.durs)
            self._smoothed = [
                median(self.durs[max(0, i - SMOOTH) : i + SMOOTH + 1]) for i in range(n)
            ]
        i = bisect_left(self.times, t)
        if i == len(self.times) or (i > 0 and t - self.times[i - 1] < self.times[i] - t):
            i -= 1
        return self.nominal / self._smoothed[i]

    def ref_rate(self) -> float:
        """Measured reference calls per second (median over the run)."""
        return 1.0 / median(self.durs)
