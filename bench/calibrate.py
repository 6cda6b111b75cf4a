"""Host-speed calibration: time a fixed numpy kernel to rescale timings.

On a shared virtual machine the speed of one CPU drifts by tens of percent
over tens of seconds, for code that does not change.  The worker therefore
times a fixed kernel, which never touches ``p2dyn``, right before and right
after every timed interval and, while a unit of work runs, every
:data:`PERIOD_S` of CPU time from a ``SIGPROF`` timer.  The interval's CPU
time, without the time spent in the kernel, is scaled to a host on which
one kernel call takes the kernel's reference time::

    scaled = cpu_s * reference_s / mean(kernel times during the interval)

A change to ``p2dyn`` cannot move the kernel's own time, so it moves only
``cpu_s``.  Raw CPU and wall times are kept in the run record.

There are two kernels, because code of different kinds slows down by
different amounts on the same host: ``array`` streams a 3 MB array through
preallocated buffers, as the Green grids and certificates do; ``calls``
makes many numpy calls on 3 x 3 arrays, as the preimage solves of the
backward walks do.  Over 55-70 repeats of identical work on a 2-CPU Xeon
virtual machine, during which that work's CPU time varied by up to 2x, the
coefficient of variation left after scaling was: a backward-walk sample
4.6 % with ``calls`` and 10 % with ``array``; a Green grid 4.1 % with
``array`` and 11 % with ``calls``.  Each workload names its kernel.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from statistics import mean, median
from time import thread_time

import numpy as np

#: CPU time between two kernel samples while a unit runs, seconds
PERIOD_S = 0.5
#: kernel calls per sample (their median is the sample)
SAMPLE_CALLS = 3

_DATA = np.random.default_rng(20171010).normal(size=(65536, 3)) + 0j
_PRODUCT = np.empty_like(_DATA)
_MODULUS = np.empty(_DATA.shape)
_ROW_MAX = np.empty(_DATA.shape[0])
_SMALL = np.random.default_rng(20171011).normal(size=(3, 3)) + 0.5j


def _array_call() -> None:
    np.multiply(_DATA, _DATA, out=_PRODUCT)
    np.abs(_PRODUCT, out=_MODULUS)
    np.max(_MODULUS, axis=1, out=_ROW_MAX)


def _calls_call() -> None:
    z = _SMALL.copy()
    for _ in range(150):
        z = z * z * 0.25 + _SMALL
        z = z / np.max(np.abs(z))


#: kernel name -> (one call, its time on the reference host in seconds,
#: close to its median on a 2-CPU Xeon virtual machine)
KERNELS = {"array": (_array_call, 5.0e-3), "calls": (_calls_call, 1.5e-3)}


class Probe:
    """Times one kernel and keeps the time it takes out of :meth:`clock`."""

    def __init__(self, kernel: str):
        self.call, self.reference_s = KERNELS[kernel]
        self.paused_s = 0.0
        self.samples: list[float] = []
        self._busy = False

    def kernel_s(self, calls: int) -> float:
        """Median CPU time of ``calls`` runs of the kernel."""
        times = []
        for _ in range(calls):
            start = thread_time()
            self.call()
            times.append(thread_time() - start)
        return median(times)

    def clock(self) -> float:
        """CPU time of this thread, less the time spent sampling."""
        return thread_time() - self.paused_s

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives inside the handler
            return
        self._busy = True
        start = thread_time()
        self.samples.append(self.kernel_s(SAMPLE_CALLS))
        self.paused_s += thread_time() - start
        self._busy = False

    @contextmanager
    def sampling(self, before_s: float):
        """Sample the kernel during the block; ``before_s`` opens the list.

        The samples are in :attr:`samples` when the block ends.
        """
        self.samples = [before_s]
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def scale(self, cpu_s: float, kernel_s: list[float]) -> float:
        """``cpu_s`` rescaled to the reference host speed."""
        return cpu_s * self.reference_s / mean(kernel_s)
