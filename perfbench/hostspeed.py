"""Host speed, sampled while the program runs, to scale timings to one speed.

On a shared host the speed of a pure-Python loop drifts by a fifth or more
over tens of seconds, as other tenants come and go, so two runs of the
same code can differ by more than any bound worth setting.  The clock
below measures that drift during the timed code itself: every
PERIOD_S a SIGALRM handler times a fixed pure-Python probe.  A sample's
speed is REFERENCE_PROBE_S over the probe's time, 1 when the probe runs
at the reference speed.

A timed section of w seconds that held probes taking x seconds in all did
w - x seconds of the program's work; at mean speed v that work takes
(w - x) * v seconds at the reference speed.  Probes land evenly in time,
so the mean of their speeds is the section's mean speed; the highest and
lowest tenth of the samples are dropped first, as a probe that a context
switch cut into says nothing about the program's speed.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

PERIOD_S = 0.02
# The probe's time at the reference speed: about its median, run back to
# back, on a 2-vCPU shared VM with CPython 3.11.7.
REFERENCE_PROBE_S = 200e-6
TRIM = 0.1


def probe() -> int:
    """A fixed mix of integer arithmetic and dict updates, as in the program."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(600):
        key = (i * 7919) % 1543
        counts[key] = counts.get(key, 0) + i
        total += key * key % 13
    return total


class HostClock:
    """Collects probe samples while `running`; `take` hands them over."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0  # time spent in probes so far

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.probe_s += took

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self) -> list[float]:
        samples, self.samples = self.samples, []
        return samples


def mean_speed(samples: list[float]) -> float:
    """Trimmed mean of the samples' speeds, relative to the reference."""
    speeds = sorted(REFERENCE_PROBE_S / s for s in samples)
    cut = int(len(speeds) * TRIM)
    return statistics.fmean(speeds[cut : len(speeds) - cut])


def scaled(seconds: float, samples: list[float]) -> float:
    """`seconds` of the program's work (probe time already taken out) at the
    reference speed.  A section too short to hold a sample stays unscaled."""
    return seconds * mean_speed(samples) if samples else seconds
