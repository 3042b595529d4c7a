"""Host-speed calibration: one fixed kernel, timed at intervals through a run.

On a shared host the same code runs 10-70 % slower at times, in periods
that last from seconds to minutes, and that drift dominates the spread
between runs.  A fixed kernel that never calls the comet package is timed
about every INTERVAL_NS between operations.  The ratio of its nominal
time to its mean measured time says how fast the host was during this
run, and the benchmark scales every host time by it: a reported time is
the time the run would have taken on a host that runs the kernel in
NOMINAL_NS.  A change to the program moves the workload and not the
kernel, so it shows in full.
"""

from time import perf_counter_ns

import numpy as np

NOMINAL_NS = 1_700_000
INTERVAL_NS = 100_000_000
DUTY = 0.02
MAX_REPS = 100

_WORDS = np.arange(16 * 400, dtype=np.int64).reshape(16, 400)
_SHIFTS = np.arange(8, dtype=np.int64)


def kernel() -> int:
    """Interpreter and small-array numpy work in the package's proportions."""
    s, buckets, out = 12345, {}, []
    for _ in range(2000):
        s = (s * 1103515245 + 12345) & 0xFFFFFFFF
        buckets[s & 255] = buckets.get(s & 255, 0) + 1
        out.append(s >> 7)
    acc = sum(out)
    for _ in range(8):
        acc += int((((_WORDS[:, :, None] >> _SHIFTS) & 1) * 2 - 1).sum())
    return acc


class HostSpeed:
    """Kernel timings of one run; `pace` runs the kernel when it is due.

    Each timing stands for the stretch of work since the previous one, so
    the host speed of the run is the mean kernel time weighted by those
    stretches.  After a long operation the kernel is repeated until it has
    taken about DUTY of the stretch, to sample the host as well as a short
    one would.
    """

    def __init__(self):
        self.spent_ns = 0
        self._weighted = 0.0
        self._stretch = 0
        self._last = perf_counter_ns()
        self._next = 0

    def pace(self) -> None:
        t0 = perf_counter_ns()
        if t0 < self._next:
            return
        stretch = t0 - self._last
        reps = min(MAX_REPS, max(1, round(DUTY * stretch / NOMINAL_NS)))
        kernel()  # warms caches the workload left cold; only reruns count
        t1 = perf_counter_ns()
        for _ in range(reps):
            kernel()
        t2 = perf_counter_ns()
        self._weighted += (t2 - t1) / reps * stretch
        self._stretch += stretch
        self.spent_ns += t2 - t0
        self._last = t2
        self._next = t2 + INTERVAL_NS

    def scale(self) -> float:
        """Host time times this factor is time at the nominal host speed."""
        if not self._stretch:
            self.pace()
        return NOMINAL_NS * self._stretch / self._weighted
