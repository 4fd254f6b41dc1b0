"""Host speed, measured by a fixed calibration unit run between operations.

The shared host this benchmark was built on switches between speeds, up to
1.9x apart, within seconds and for minutes (README, Steadiness). Every
workload process therefore runs :func:`unit` between its operations, for
about CAL_SHARE of the time the operations take, and reports pass times
rescaled to the speed at which one unit takes CAL_REF_S seconds:

    normalized = measured * CAL_REF_S / (mean unit time around the pass)

The unit is the benchmark's own code, not the program's: interpreted float
arithmetic, small numpy linear algebra and float formatting, the three kinds
of work the workloads spend their time in. A change to glmstab never changes
the unit's cost, so it shows in full in the normalized times.
"""

import math
import time

import numpy as np

CAL_SHARE = 0.3         # calibration seconds per second of operations
CAL_REF_S = 0.004       # unit time at the reference speed (fast state, 2-vCPU Xeon KVM)

_MATRICES = [np.eye(4) + 0.01 * np.sin(np.arange(16.0) * k).reshape(4, 4)
             for k in range(1, 21)]


def unit():
    """One calibration unit, a fixed amount of work; returns its seconds."""
    start = time.perf_counter()
    x = 0.0
    for i in range(6000):
        x += math.sin(i * 1e-3) * 1.0001
    v = np.eye(4)
    for m in _MATRICES * 3:
        v, _ = np.linalg.qr(m @ v)
    ",".join(f"{i * x:.17g}" for i in range(4500))
    return time.perf_counter() - start


class Meter:
    """Calibration units run so far: their count and total seconds."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def sample(self, budget):
        """Run units for about ``budget`` seconds, at least one."""
        spent = 0.0
        while True:
            spent += unit()
            self.units += 1
            if spent >= budget:
                break
        self.seconds += spent

    def take(self):
        """(units, seconds) since the last take, and reset."""
        out = (self.units, self.seconds)
        self.units, self.seconds = 0, 0.0
        return out


def normalize(seconds, units, unit_seconds):
    """``seconds`` rescaled to the reference speed, given the units around them."""
    return seconds * CAL_REF_S * units / unit_seconds


def pass_seconds(passes):
    """Normalized time of each pass recorded as {"ops": [...], "cal": [units, s]}."""
    return [normalize(sum(p["ops"]), *p["cal"]) for p in passes]
