"""Correction for the machine's changing speed.

On a shared host the same single-threaded Python code runs at different
speeds from one second to the next, as other tenants contend for the core.
Process CPU time stretches with wall time, so measuring it instead does not
help.  While the
benchmark measures, a timer signal interrupts it every PROBE_INTERVAL_S and
times a fixed pure-Python kernel (Fraction, tuple and dict work, like the
library's own).  From the samples it builds a reference clock: probe time
counts zero, and the time between two samples runs at PROBE_REFERENCE_S over
the mean probe time around them.  Durations are differences of reference
clock readings, so nested intervals (spans inside spans) stay consistent.
Times reported this way are seconds on a machine where one probe takes
PROBE_REFERENCE_S.

The probe shares no state with the library; garbage collection is paused
while it runs, so that the library's garbage is not collected on the probe's
clock.  Without samples times are returned unconverted.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.02
PROBE_REFERENCE_S = 0.001
PROBE_SMOOTH = 3  # samples on each side averaged into a local speed


def probe_kernel(n: int = 300) -> Fraction:
    acc = Fraction(0)
    table: dict = {}
    for i in range(n):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + 1
        acc += Fraction(i % 5 + 1, i % 3 + 1)
    return acc


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._sampling = False

    def _sample(self, signum, frame) -> None:
        if self._sampling:  # a signal that arrives during a sample is dropped
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        probe_kernel()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()
        self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        d = self.durations
        # speed factor of the gap after each sample, and the reference clock
        # reading at each sample's start
        self._factors = [
            PROBE_REFERENCE_S / statistics.fmean(d[max(0, i - PROBE_SMOOTH): i + PROBE_SMOOTH + 1])
            for i in range(len(d))
        ]
        self._readings = [0.0] * len(d)
        for i in range(1, len(d)):
            gap = self.starts[i] - self.starts[i - 1] - d[i - 1]
            self._readings[i] = self._readings[i - 1] + gap * self._factors[i - 1]

    def _reference(self, t: float) -> float:
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:  # before the first sample
            return (t - self.starts[0]) * self._factors[0]
        return self._readings[i] + max(0.0, t - self.starts[i] - self.durations[i]) * self._factors[i]

    def seconds(self, start: float, end: float) -> float:
        """Duration of [start, end] at reference speed, without probe time.
        Call after the probe has stopped."""
        if not self.starts:
            return end - start
        return self._reference(end) - self._reference(start)

    def summary(self) -> dict:
        if not self.durations:
            return {"samples": 0}
        return {
            "samples": len(self.durations),
            "mean_s": statistics.fmean(self.durations),
            "median_s": statistics.median(self.durations),
            "reference_s": PROBE_REFERENCE_S,
        }
