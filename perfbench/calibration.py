"""Host-speed calibration for the benchmark.

Raw CPU time for one fixed simulation swings by tens of percent between
back-to-back processes on a shared host, with bit-identical simulated
cycles: the host's speed moves, not the program's work. The benchmark
therefore reports host time in *calibrated seconds*: raw CPU seconds
times ``(NOMINAL_S / k) ** SENSITIVITY``, where ``k`` is the mean time of
a fixed kernel measured during the same interval.

Contention on a shared host changes within a second, so the kernel runs
*inside* the measured work: while armed, a ``SIGPROF`` interval timer
interrupts the process every :data:`PERIOD_S` CPU seconds and the
handler times one burst of the kernel. The handler's own CPU time is
taken back out of every interval, and each interval is calibrated with
the bursts that ran during it.

The kernel is a tight pure-Python integer loop. Interleaved this way it
tracked the simulator's per-operation slowdowns better than kernels
that churn objects and dicts over a multi-megabyte heap (see README.md,
"Calibration").
"""

from __future__ import annotations

import signal
import time

#: CPU seconds one burst takes on the reference host (2-vCPU x86-64
#: container, CPython 3.11). Calibrated seconds are seconds on a host
#: where a burst takes exactly this long.
NOMINAL_S = 0.0013

#: How much more the simulator slows than the kernel when the host is
#: contended: its slowdown is the kernel's raised to this power. Fitted
#: on the reference host over three sets of ten runs at different host
#: loads (README.md, "Calibration"); with 1.0 the calibrated medians of
#: the sets still differed by up to 15%.
SENSITIVITY = 1.3

#: CPU seconds between bursts while armed (about 3% overhead).
PERIOD_S = 0.05

_ITERATIONS = 20_000


def _burst() -> int:
    x = 0
    for i in range(_ITERATIONS):
        x += i * i & 7
    return x


class Calibrator:
    """Times the kernel from a ``SIGPROF`` handler while armed.

    The process must be single-threaded: CPU time is read with
    :func:`time.thread_time`, which stays exact inside the handler.
    """

    def __init__(self):
        self.samples: list = []   # burst CPU seconds, in order
        self.spent = 0.0          # CPU seconds spent in the handler
        self._previous = None

    def arm(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _handler(self, signum, frame) -> None:
        t0 = time.thread_time()
        _burst()
        t1 = time.thread_time()
        self.samples.append(t1 - t0)
        self.spent += time.thread_time() - t0

    def mark(self) -> tuple:
        """A point in time: (thread CPU, handler CPU, samples taken)."""
        while True:
            taken = len(self.samples)
            mark = (time.thread_time(), self.spent, taken)
            # The handler runs between bytecodes; if it ran while the
            # three were read, they disagree by one burst: read again.
            if len(self.samples) == taken:
                return mark

    def interval(self, start: tuple, end: tuple = None) -> tuple:
        """``(raw, calibrated)`` CPU seconds between two marks.

        Both exclude the handler's own time. The calibration uses the
        bursts taken inside the interval, or the last one before it
        when the interval is shorter than :data:`PERIOD_S`.
        """
        if end is None:
            end = self.mark()
        raw = (end[0] - start[0]) - (end[1] - start[1])
        window = (self.samples[start[2]:end[2]]
                  or self.samples[start[2] - 1:start[2]] or [NOMINAL_S])
        speed = NOMINAL_S * len(window) / sum(window)
        return raw, raw * speed ** SENSITIVITY
