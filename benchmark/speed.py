"""Machine-speed reference for the benchmark's timings.

On a shared host the speed at which one interpreter runs is not steady:
on a 2-core x86 host a fixed 3-ms stdlib kernel switched between a fast
and a slow speed (about 1.7x apart) many times a second, and the share of
time spent slow moved from one minute to the next, so the same n=5 orbit
op took 75 to 129 ms within 90 s.  Over 20-s windows the ratio of an op's
mean time to the kernel's mean time varied by 2-3%; the op times alone
varied by 10%.

Every time the benchmark reports is therefore given in reference seconds:
the raw wall time of an op, multiplied by NOMINAL_S over the mean time
the reference kernel took around it in the same process, raised to the
workload's exponent (workloads.SPEED_EXPONENT).  The kernel runs
between ops, outside the timed region, and uses none of bott, so a change
to the program moves the ops and not the kernel.  Its work (small-integer
loops, tuple hashing, Fraction arithmetic, argparse and json) is the kind
the package does.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.003       # kernel time at which a reference second is a second
SAMPLE_EVERY_S = 0.05   # wall time between kernel samples during a loop
REACH_MIN_S = 0.06      # an op is scaled by the samples within this distance,
REACH_FACTOR = 2        # or this many times its own duration if longer,
MIN_SAMPLES = 3         # or else by this many of the nearest samples


def reference_kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    acc = 0
    rows = [[(i * j) % 5 - 2 for j in range(6)] for i in range(6)]
    for _ in range(6):
        out = [[0] * 6 for _ in range(6)]
        for i in range(6):
            for c in range(6):
                total = rows[i][c]
                for k in range(i):
                    if rows[i][k]:
                        total += rows[i][k] * out[k][c]
                out[i][c] = -total
        acc += out[5][5]
    seen = set()
    for i in range(750):
        seen.add(((i * 7) % 31, (i * 11) % 29, i % 3))
    acc += len(seen)
    total = Fraction(0)
    for q in range(2, 42):
        total += Fraction(q - 1, q) * Fraction(1, q + 1)
    acc += total.denominator % 97
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="command")
    for k in range(4):
        cmd = sub.add_parser(f"cmd{k}")
        cmd.add_argument("--matrix")
        cmd.add_argument("values", nargs="*", type=int)
    args = parser.parse_args(["cmd3", "--matrix", "x", "1", "2", "3"])
    acc += sum(args.values)
    acc += len(json.dumps({"rows": rows, "seen": sorted(seen)[:200]}, indent=2))
    return acc


def kernel_seconds() -> float:
    """One timed run of the reference kernel, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedTrack:
    """Kernel samples taken between ops, and the scale they give each op.

    `exponent` is how strongly the ops follow the kernel: the slope of log
    op time against log kernel time.  A scale is (NOMINAL_S / kernel time)
    to that power.
    """

    def __init__(self, exponent: float = 1.0):
        self.exponent = exponent
        self.times: list[float] = []      # wall-clock midpoint of each sample
        self.seconds: list[float] = []    # kernel time of each sample

    def sample(self) -> None:
        start = perf_counter()
        seconds = kernel_seconds()
        self.times.append(start + seconds / 2)
        self.seconds.append(seconds)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def _scale(self, window: list[float]) -> float:
        return (NOMINAL_S / statistics.fmean(window)) ** self.exponent

    def recent_scale(self) -> float:
        """The scale given by the latest samples."""
        return self._scale(self.seconds[-4 * MIN_SAMPLES:])

    def scale(self, start: float, end: float) -> float:
        """The scale given by the mean kernel time around the op [start, end].

        A short op is matched with the samples next to it; a long one with
        the samples over a stretch a few times its length, since it spans
        many spells of fast and slow.  Means, not medians: an op's time
        grows with the share of it spent slow, and so does the mean.
        """
        reach = max(REACH_MIN_S, REACH_FACTOR * (end - start))
        lo = bisect.bisect_left(self.times, start - reach)
        hi = bisect.bisect_right(self.times, end + reach)
        if hi - lo < MIN_SAMPLES:
            mid = (start + end) / 2
            at = bisect.bisect_left(self.times, mid)
            lo, hi = max(0, at - MIN_SAMPLES), min(len(self.times), at + MIN_SAMPLES)
            near = sorted(range(lo, hi), key=lambda i: abs(self.times[i] - mid))
            window = [self.seconds[i] for i in near[:MIN_SAMPLES]]
        else:
            window = self.seconds[lo:hi]
        return self._scale(window)
