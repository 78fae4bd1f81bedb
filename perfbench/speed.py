"""CPU-speed calibration for timings taken on a shared machine.

On the reference machine the speed of each vCPU drifts by 10-30 % within
seconds, with the load of whatever shares its core, far more than the
regressions the benchmark must catch. run.py pins the benchmark and its
children to one CPU, and a fixed loop that does not touch gsesim
(interpreter bytecode plus small numpy and LAPACK calls, the two kinds of
work gsesim does) is timed between consecutive tasks. Each task's wall
time is scaled by REFERENCE_S over the mean of the readings just before
and just after it, so it reads as seconds on the reference machine at its
usual speed. Raw wall times are printed alongside.
"""

from __future__ import annotations

import time

import numpy as np

# median loop time on the reference machine (README.md)
REFERENCE_S = 0.05


def reading():
    """Wall seconds of one pass of the fixed calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    x = np.linspace(0.0, 1.0, 4000)
    m = np.eye(24) + 0.01 * np.outer(x[:24], x[::-1][:24])
    for _ in range(160):
        x = np.sin(x) + np.cos(x)
        np.linalg.solve(m, x[:24])
    return time.perf_counter() - start


def scaled(seconds, calibration):
    """Wall seconds at reference speed, given the calibration around them."""
    return seconds * REFERENCE_S / calibration


def factor(readings):
    """Run-level scale for times that span many tasks."""
    return REFERENCE_S / float(np.median(readings))


class Calibrator:
    """Readings between consecutive tasks; `after()` follows each task."""

    def __init__(self):
        self.last = reading()

    def after(self):
        """Take the next reading; returns the mean of the two around the task."""
        value = reading()
        mean = 0.5 * (self.last + value)
        self.last = value
        return mean
