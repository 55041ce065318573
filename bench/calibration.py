"""Machine-speed calibration for the benchmark's timings.

The 2-core VM this benchmark was tuned on changes speed over minutes: the
same work differed by up to 1.4x between 30-s windows.  Averaging inside
a run cannot remove a drift that lasts longer than the run.  So the
runner times a fixed kernel between stretches of jobs and scales each
job's time by ``REFERENCE_S / (mean of the two kernel times around it)``.
The result is the job's time at the speed the machine had when
REFERENCE_S was measured: "reference seconds".  This removes part of the
drift, not all of it (see bench/README.md).

The kernel never calls alliancekit, so a change to the package cannot
move it.  It mixes the two kinds of work the package does: a
pure-Python bitmask loop and a numpy popcount sweep over a few MB.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median of 100 ``Calibrator.kernel_time()`` calls on the reference
#: machine (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.0191

PASSES = 5
_ADJ = [((i * 2654435761) >> 7) & 0xFFFF for i in range(16)]


class Calibrator:
    """Owns the kernel's buffers, allocated once so that the timed passes
    allocate nothing (page faults after a large job made a kernel that
    allocated its arrays twice as noisy)."""

    def __init__(self):
        self._masks = np.arange(1 << 20, dtype=np.uint32)
        self._tmp = np.empty_like(self._masks)
        self._count = np.empty(self._masks.shape, dtype=np.uint8)
        self._hit = np.empty(self._masks.shape, dtype=bool)
        self._ok = np.empty(self._masks.shape, dtype=bool)

    def _one_pass(self) -> float:
        start = time.perf_counter()
        total = 0
        for m in range(1 << 12):
            for v in range(16):
                if m >> v & 1:
                    total += (_ADJ[v] & m).bit_count()
        self._ok.fill(True)
        for v in range(8):
            np.bitwise_and(self._masks, np.uint32(_ADJ[v]), out=self._tmp)
            np.bitwise_count(self._tmp, out=self._count)
            np.greater_equal(self._count, 3, out=self._hit)
            np.logical_and(self._ok, self._hit, out=self._ok)
        total += int(self._ok.sum())
        return time.perf_counter() - start

    def kernel_time(self) -> float:
        """Median wall time of PASSES passes of the fixed kernel."""
        return statistics.median(self._one_pass() for _ in range(PASSES))


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference seconds, given the kernel times around it."""
    return seconds * REFERENCE_S * 2 / (before + after)
