"""Machine speed, measured alongside the workload, to scale its timings.

The benchmark shares a 2-core machine whose speed drifts by 20% and more
between runs, in periods longer than a run.  `calibrate` times a fixed
piece of exact integer and rational arithmetic, the kind of work the
program does.  The worker runs it every CALIBRATE_EVERY_S seconds, in the
middle of operations too, and its own time is taken out of every duration
the benchmark records.  Each timing is then scaled by REFERENCE_S over the
mean calibration time of its pass: the figure is the time the operation
would take on a machine where `calibrate` takes REFERENCE_S.  Raw times
are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.006
CALIBRATE_EVERY_S = 0.2


def calibrate() -> float:
    """Seconds taken by a fixed piece of exact integer and rational arithmetic."""
    start = time.perf_counter()
    seen = {}
    for i in range(1, 750):
        x = Fraction(i * i + 1, 3 * i + 2) * Fraction(7, i + 5) + Fraction(1, i)
        seen[x.numerator % 1009] = math.comb(120, i % 60) % (x.denominator + 1)
    return time.perf_counter() - start


class Speedometer:
    """Runs `calibrate` every CALIBRATE_EVERY_S seconds of wall time, also in
    the middle of an operation, from a SIGALRM handler.  `inside` is the
    total time spent calibrating, which the operation timings subtract."""

    def __init__(self):
        self.samples: list = []
        self.inside = 0.0

    def sample(self, *_):
        took = calibrate()
        self.samples.append(took)
        self.inside += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> list:
        out, self.samples = self.samples, []
        return out

    def clock(self) -> float:
        """perf_counter less the time spent calibrating so far."""
        while True:
            before = self.inside
            now = time.perf_counter()
            if self.inside == before:
                return now - before


def scale(samples) -> float:
    """Factor that turns raw seconds of a stretch into reference seconds,
    from the calibration times measured during it."""
    return REFERENCE_S / statistics.mean(samples)
