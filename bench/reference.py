"""Machine-speed sampling, so host times can be read at a reference speed.

On a shared machine the speed available to one process flips between fast
and slow states many times a second, and the share of time spent slow
drifts over tens of seconds; a 35-second window of simulator runs can land
anywhere in a range of a third or more.  While the benchmark measures, a
SIGALRM handler therefore interrupts the process every PERIOD_S seconds and
times a fixed micro-loop (a few hundred interpreter float operations and a
few small NumPy calls, the kinds of work the simulator does).  A measured
interval's host time, minus the time spent in the handler, is scaled by

    NOMINAL_S / (trimmed mean of the micro-loop times inside the interval)

so it reads as if the machine had run at the reference speed throughout.
The loop is benchmark-owned and never changes with the program, so a faster
or slower program still moves the scaled figures one for one.  The handler
shares no state with the program: run outputs stay byte-identical, which
the benchmark checks on every run.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.005
# Micro-loop seconds on an uncontended 2-vCPU KVM guest (Intel Xeon,
# Python 3.11, NumPy 2.4): the reference speed scaled timings are read at.
NOMINAL_S = 90e-6
TRIM = 0.1        # the slowest tenth of samples (cold caches, GC) is dropped

_ARRAY = np.arange(3.0)


def _micro_loop() -> float:
    x, acc, a = 0.1, 0.0, _ARRAY
    for i in range(150):
        x = x * 1.0000001 + 0.5 * math.sin(x)
        acc += x
        if i % 10 == 0:
            a = np.clip(a + 0.001, -5.0, 5.0)
    return acc


def trimmed_mean(samples: list[float]) -> float:
    kept = sorted(samples)[:max(1, math.ceil(len(samples) * (1 - TRIM)))]
    return sum(kept) / len(kept)


@dataclass
class Interval:
    """One measured interval: host seconds net of sampling, and the factor
    that converts them to reference-speed seconds."""

    net_s: float = 0.0
    scale: float = 1.0


class SpeedSampler:
    """Samples machine speed from a SIGALRM handler while active."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        _micro_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, samples: list[float] | None = None) -> float:
        """Reference-speed factor over the given samples (default: all)."""
        samples = self.samples if samples is None else samples
        return NOMINAL_S / trimmed_mean(samples) if samples else 1.0

    @contextmanager
    def interval(self):
        """Time the body; fills in an Interval when it ends.  An interval
        too short to hold a sample takes the scale of all samples so far."""
        iv = Interval()
        first = len(self.samples)
        start = time.perf_counter()
        try:
            yield iv
        finally:
            end = time.perf_counter()
            inside = self.samples[first:]
            iv.net_s = end - start - sum(inside)
            iv.scale = self.scale(inside if inside else None)
