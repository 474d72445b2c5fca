"""Machine-speed calibration for the benchmark's timings.

A shared virtual machine (measured on a 2-vCPU one) changes speed by 30 %
and more for seconds to minutes at a time, while the ratio between two
pieces of pure-Python work done at the same moment holds within a few per
cent.  So
the benchmark runs a fixed reference kernel between ops, in the same
process, and scales each op's wall time by how fast the kernel ran around
that op:

    scaled = wall * REF_NOMINAL_S / (median kernel time near the op)

A scaled time is the time the op would take on a machine on which the
kernel takes REF_NOMINAL_S.  A change to omegalab moves scaled times just as
it moves wall times, since the kernel does not call omegalab; a change in
the machine's speed moves the kernel too and cancels out.

The kernel is half random reads from a 16 MB array, which miss the core's
own caches as lookups in codec's table do, and half big-integer multiply and
divide, as in codec's counting and finset's set algebra.  Of several kernels
tried against identical ops, this mix followed pipeline, codec-deep and
shuffle best; a pure-interpreter kernel over-reacted to the machine's speed
changes.  The kernel allocates no container objects, so the garbage
collector never runs inside it, and its time does not depend on how many
objects the engine holds.  Its 16 MB array is left out of a run's peak RSS.
"""

from __future__ import annotations

import bisect
import statistics
from array import array
from time import perf_counter

# The kernel's median time on the 2-vCPU machine the bounds were set on
# (Python 3.11); only a unit, so that scaled times read as seconds.
REF_NOMINAL_S = 0.010
# Sample the kernel after an op once this much time has passed since the
# last sample, and scale an op by the samples within this many seconds of it.
# One sample is noisy; a window of many follows the drift, which runs over
# seconds and longer.
SAMPLE_EVERY_S = 0.2
WINDOW_S = 2.5
MIN_SAMPLES = 10

_MEM_STEPS = 20_000
_MUL_STEPS = 15_000
_ARRAY_BITS = 21  # 2^21 int64 entries: 16 MB, far past the L2 cache
_BIG = 3 ** 130   # about 200 bits, the size of codec's deep counts


def kernel(table, j: int) -> int:
    """Half random reads from `table`, half big-integer multiply/divide.

    The reads follow a full-period sequence from position `j`; the new
    position is returned so that the next call reads other entries.  Were
    every call to read the same entries, back-to-back calls would find them
    in the core's cache and calls after an op would not.
    """
    mask = len(table) - 1
    s = acc = 0
    for _ in range(_MEM_STEPS):
        j = (j * 1103515245 + 12345) & mask
        s += table[j]
    big = _BIG
    for i in range(1, _MUL_STEPS):
        acc = (acc + big * i) // 7 + big // (i + 2)
    return j


class Calibrator:
    """Kernel samples (mid time, duration) and the scale factor they give."""

    def __init__(self) -> None:
        self.table = array("q", range(1 << _ARRAY_BITS))
        self.position = 0
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        self.position = kernel(self.table, self.position)
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def sample_for(self, seconds: float) -> None:
        until = perf_counter() + seconds
        while perf_counter() < until:
            self.sample()

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the median kernel time near [start, end]: the
        samples within WINDOW_S of it, widened to the MIN_SAMPLES nearest."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            before = start - self.times[lo - 1] if lo > 0 else float("inf")
            after = self.times[hi] - end if hi < len(self.times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return REF_NOMINAL_S / statistics.median(self.durations[lo:hi])

    def table_mb(self) -> float:
        return self.table.itemsize * len(self.table) / (1 << 20)

    def median_s(self) -> float:
        return statistics.median(self.durations)
