"""Timings scaled to a fixed machine speed.

The shared VM this benchmark was built on changes speed by up to ±35%
within a second, and stays slow or fast for minutes at a time, so two runs
of the same code can differ by a quarter in raw seconds.  A timing that
divides out the machine's speed at the moment it was taken does not.

`SpeedProbe` measures that speed from inside the benchmark process.  A
`SIGPROF` interval timer interrupts the process every `INTERVAL_S` CPU
seconds, and the handler times one call of `reference()`: a fixed loop of
`Fraction` and big-integer arithmetic with dict updates, the same kinds of
work as fusioncat's exact arithmetic, written with the standard library
only, so that no change to fusioncat can change its cost.  The handler runs
between the bytecodes of whatever the benchmark is timing, so the samples
fall inside the timed call, spread evenly over its CPU time.

A timing over ``[t0, t1]`` is then scaled by ``REFERENCE_S / c``, where
``c`` is the mean cost of the reference samples taken in that interval
(widened to the nearest `MIN_SAMPLES` samples for short intervals).  The
result is "seconds at the reference speed": the time the same work takes
when `reference()` costs `REFERENCE_S`, as it did on the machine the
benchmark was built on.  The probe's own time is subtracted from every
timing first (`wall()` and `cpu()`).
"""

from __future__ import annotations

import bisect
import contextlib
import resource
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02       # CPU seconds between two reference samples
MIN_SAMPLES = 8         # samples that make one speed estimate
REFERENCE_S = 0.0006    # cost of reference() at the reference speed


def reference() -> int:
    """The fixed unit of work whose cost measures the machine's speed."""
    x = Fraction(1, 3)
    seen = {}
    for i in range(100):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + 1
        seen[i & 31] = x.numerator % 97
    return len(seen)


class SpeedProbe:
    """Reference samples taken while the benchmark runs, and the clocks and
    scale factors derived from them."""

    def __init__(self):
        self.stamps: list[float] = []    # perf_counter at each sample
        self.costs: list[float] = []     # CPU seconds of each reference()
        self.spent_wall = 0.0            # time taken by the probe itself
        self.spent_cpu = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    @contextlib.contextmanager
    def paused(self):
        """No samples inside the block (traced passes, whose spans should
        not include the probe); sampling resumes after it if it ran before."""
        running = self._previous is not None
        self.stop()
        try:
            yield
        finally:
            if running:
                self.start()

    def _tick(self, _signum=None, _frame=None) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        reference()
        cost = time.thread_time() - c0
        self.stamps.append(w0)
        self.costs.append(cost)
        self.spent_cpu += cost
        self.spent_wall += time.perf_counter() - w0

    def wall(self) -> float:
        """perf_counter without the probe's own time."""
        return time.perf_counter() - self.spent_wall

    def cpu(self) -> float:
        """CPU seconds of this process and its reaped children (--jobs
        workers), without the probe's own time."""
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (time.thread_time() + children.ru_utime + children.ru_stime
                - self.spent_cpu)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean reference cost over the perf_counter interval [t0, t1], as a
        multiple of REFERENCE_S."""
        i = bisect.bisect_left(self.stamps, t0)
        j = bisect.bisect_right(self.stamps, t1)
        n = len(self.stamps)
        while j - i < MIN_SAMPLES and (i > 0 or j < n):
            if i > 0:
                i -= 1
            if j < n and j - i < MIN_SAMPLES:
                j += 1
        if i == j:                       # no sample yet: take some now
            for _ in range(MIN_SAMPLES):
                self._tick()
            return self.slowdown(t0, t1)
        return statistics.fmean(self.costs[i:j]) / REFERENCE_S

    def summary(self) -> dict:
        """The run's samples in brief, for the record."""
        if len(self.costs) < 2:
            return {"samples": len(self.costs)}
        q1, q2, q3 = statistics.quantiles(self.costs, n=4)
        return {"samples": len(self.costs), "spent_cpu_s": self.spent_cpu,
                "slowdown_mean": statistics.fmean(self.costs) / REFERENCE_S,
                "slowdown_quartiles": [q / REFERENCE_S for q in (q1, q2, q3)]}

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """A timing taken over [t0, t1], in seconds at the reference speed."""
        return seconds / self.slowdown(t0, t1)
