"""Machine speed, sampled by a fixed kernel, to report reference seconds.

Shared hosts drift. On the 2-vCPU virtual machine this benchmark was
defined on, each vCPU switches between a fast and a 1.6x slower phase
every few seconds, independently of the other, and process CPU time
drifts as much as wall time: the processor slows, nothing steals it. A
run of a few seconds spans several phases, so one calibration before
and after it cannot say how fast it ran.

So the kernel below, 0.3 ms of interpreted dict updates, is timed many
times *during* each operation, from a ``SIGALRM`` handler every 20 ms
(:meth:`Speed.sampling`). Python runs the handler on the main thread.
Given several vCPUs, the handler moves the main thread to the next one
before each sample and leaves it there, so the main thread's work and
the samples both spread evenly over the vCPUs while helper threads run
on all of them. Work done in an interval is proportional to its length
over the kernel's time in it, so an operation of wall ``T`` took
``T * REFERENCE_S * mean(1 / k)`` reference seconds: its duration on a
machine where the kernel takes ``REFERENCE_S``. A handler that has to
wait for the interpreter lock starts its clock only once it holds it.

The kernel lives here, not in the package, so a change to the package
can never speed up the yardstick along with the code it measures.
"""

from __future__ import annotations

import os
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

#: the kernel's time that defines one reference second (about its time
#: in the fast phase of the host the benchmark was defined on)
REFERENCE_S = 3.0e-4

#: seconds between samples
PERIOD_S = 0.02


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed kernel."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
    return perf_counter() - t0


class Speed:
    """Collects kernel samples and turns them into a time scale."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._cpus = sorted(os.sched_getaffinity(0))
        self._turn = 0

    def _sample(self, *_: object) -> None:
        if len(self._cpus) == 1:
            self._samples.append(kernel_seconds())
            return
        cpu = self._cpus[self._turn % len(self._cpus)]
        self._turn += 1
        os.sched_setaffinity(0, {cpu})  # migrates the main thread now
        try:
            self._samples.append(kernel_seconds())
        finally:
            os.sched_setaffinity(0, self._cpus)

    @contextmanager
    def sampling(self):
        """Sample every :data:`PERIOD_S` while the block runs (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Reference seconds per wall second over the samples since the last call.

        A span too short to be sampled is sampled right after it.
        """
        if not self._samples:
            self._sample()
        samples, self._samples = self._samples, []
        return REFERENCE_S * statistics.fmean(1.0 / k for k in samples)
