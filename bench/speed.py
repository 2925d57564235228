"""Host speed, sampled just before, during and just after each timed op.

The host runs the same code up to about twice as slowly at some times
as at others, and switches within milliseconds or after minutes; CPU
time slows as much as wall time.  So every timing of the benchmark is scaled
to reference speed: multiplied by ``STEP_REF_S`` over the mean of the
step times of a fixed probe taken just before, every ``INTERVAL_S``
during, and just after the timed code.  The probe uses no library code,
so a change to the library moves the timings and not the probe.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

STEPS = 10              # probe steps in one sample, about 0.1 ms
EDGE_SAMPLES = 5        # samples, and their median, before and after an op
INTERVAL_S = 0.025      # sampling period inside an op
# One step's time on a quiet 2-vCPU Intel Xeon (2.0 GHz), the host the
# benchmark was built on; it only sets the scale of the scaled timings.
STEP_REF_S = 9.0e-6

POINTS = np.random.default_rng(0).standard_normal((5, 4))


def sample() -> float:
    """Seconds per step of small-array work like the library's hot loops:
    broadcast arithmetic on a few points, reductions, a small determinant."""
    a = POINTS
    t0 = time.perf_counter()
    for k in range(STEPS):
        d = np.sqrt(((a - a[k % 5]) ** 2).sum(axis=1))
        float(d.sum()) + float(np.linalg.det(a[1:] - a[0]))
    return (time.perf_counter() - t0) / STEPS


def edge() -> float:
    """Seconds per step now, as the median of a few samples."""
    return statistics.median(sample() for _ in range(EDGE_SAMPLES))


class Sampler:
    """Samples speed every ``INTERVAL_S`` from a timer signal.

    The handler runs between bytecodes of the timed code.  It keeps each
    sample and adds up the wall and CPU time it took, so that the caller
    can take that time out of the timing it surrounds.  A sample is a
    whole ``edge()``: single samples taken inside an op were slowed by the
    op more than the op itself is slowed by the host, and made the scaled
    timings less steady than scaling by the edges alone.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.samples.append(edge())
        self.spent_wall += time.perf_counter() - t0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(per_step: list[float]) -> float:
    """Factor that brings a timing to reference speed."""
    return STEP_REF_S / statistics.fmean(per_step)
