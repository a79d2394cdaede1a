"""Host-speed calibration for the benchmark's time metrics.

On a small shared machine the CPU runs the same code up to about 1.8x
slower for stretches of seconds to minutes, often longer than one run, so
wall-clock figures of two runs of the same code differ by more than the
regressions the benchmark must catch. A fixed reference kernel, timed on an
interval timer all through a run with the benchmark clock paused, tracks
that speed. A stretch of benchmark time between two samples counts as its
wall duration times the speed factor ``REF_S / reference time`` averaged
over the two samples: the time it would have taken at the speed where the
kernel takes ``REF_S`` seconds.

The kernel is the benchmark's own code and never changes with the program,
so a faster program still reads as fewer calibrated seconds. It mixes a
pure-Python pairwise loop (interpreter speed) with a random gather over a
few MB (cache and memory speed), because the workloads lean on both and
the host's slow phases hit the two differently.
"""
from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

REF_S = 5e-4           # nominal duration of one reference sample, in seconds
INTERVAL_S = 0.1       # wall seconds between samples
REPEATS = 3            # timings per kernel in one sample; the median is kept
_GATHER_LEN = 1 << 19  # float64 elements gathered from: 4 MiB


class HostSpeed:
    """The reference kernel; its inputs are fixed, not seeded."""

    def __init__(self):
        rng = np.random.default_rng(20220702)
        self.points = rng.integers(0, 64, size=(24, 2))
        self.table = rng.standard_normal(_GATHER_LEN)
        self.index = rng.integers(0, _GATHER_LEN, size=40_000)

    def _pairwise(self):
        pts, best = self.points, {}
        for i in range(len(pts)):
            for j in range(len(pts)):
                dx = int(pts[j, 0] - pts[i, 0])
                dy = int(pts[j, 1] - pts[i, 1])
                key = "v" if abs(dy) >= abs(dx) else "h"
                cand = (dx * dx + dy * dy, j)
                if key not in best or cand < best[key]:
                    best[key] = cand
        return best

    def _gather(self):
        return sum(float(self.table[self.index].sum()) for _ in range(4))

    def sample(self) -> float:
        """Geometric mean of the two kernels' median timings, in seconds."""
        medians = []
        for kernel in (self._pairwise, self._gather):
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            medians.append(sorted(times)[REPEATS // 2])
        return math.sqrt(medians[0] * medians[1])


class SpeedTrace:
    """Reference samples taken every ``INTERVAL_S`` inside the ``with``
    block, from a ``SIGALRM`` handler on the one Python thread, and the
    calibrated duration of any clock interval inside the block."""

    def __init__(self, clock):
        self.clock = clock
        self.kernel = HostSpeed()
        self.times: list[float] = []    # benchmark-clock time of each sample
        self.refs: list[float] = []     # reference-kernel seconds of each sample
        self._previous = None

    def _take(self, *_):
        t = self.clock.now()
        with self.clock.paused():
            ref = self.kernel.sample()
        self.times.append(t)
        self.refs.append(ref)

    def __enter__(self):
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()
        return False

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of the benchmark-clock interval [start, end]."""
        times, refs = self.times, self.refs
        total = 0.0
        k = max(bisect.bisect_right(times, start) - 1, 0)
        t = start
        while t < end:
            if k + 1 < len(times):
                seg_end = min(end, times[k + 1])
                f = (REF_S / refs[k] + REF_S / refs[k + 1]) / 2.0
            else:
                seg_end, f = end, REF_S / refs[-1]
            total += (seg_end - t) * f
            t = seg_end
            k += 1
        return total

    def host_speed(self) -> float:
        """Median speed factor over the run (1 at the nominal speed)."""
        return REF_S / float(np.median(self.refs))
