"""Speed of the core a process runs on, for scaling measured times.

Standard library only, so that a set-up probe can start measuring
before it imports numpy or wmgraph.
"""

from __future__ import annotations

import signal
import time

REF_KERNEL_S = 6.5e-4    # the reference kernel on an uncontended core
SAMPLE_EVERY_S = 0.1


def _kernel_time() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Speed of the core over a measured region, relative to the speed
    at which ``REF_KERNEL_S`` was taken.

    On a shared machine the core this process runs on slows by up to
    1.7x for seconds to minutes at a time, with CPU time still equal to
    wall time.  A fixed pure-Python kernel, timed at each end of the
    region and every ``SAMPLE_EVERY_S`` from a timer signal, follows
    that speed.  Its working set is a few cache lines, so the program's
    own memory traffic barely moves it.  Sampling costs about 1%.
    """

    def __enter__(self):
        self.samples = []   # (time taken, kernel seconds)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_):
        self.samples.append((time.perf_counter(), _kernel_time()))

    def normalized(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken on the uncontended
        core: each stretch between two samples is scaled by the mean of
        their kernel times, so a slow minute does not leak into a fast
        one."""
        total = 0.0
        for (t0, d0), (t1, d1) in zip(self.samples, self.samples[1:]):
            lo, hi = max(start, t0), min(end, t1)
            if hi > lo:
                total += (hi - lo) * 2.0 * REF_KERNEL_S / (d0 + d1)
        return total
