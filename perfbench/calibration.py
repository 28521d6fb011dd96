"""Calibration: how fast this machine runs a fixed kernel right now.

Timings are reported in reference seconds: seconds scaled by how fast the
machine ran this kernel next to the timed work.  On a shared 2-CPU machine
the speed of the same code drifts by up to 1.6x in phases lasting from a
few hundred milliseconds to minutes, so raw medians move by 10-30% from run
to run; the ratio of the work to its neighbouring calibrations moves by a few
percent.  Calibrating next to each timed region rather than each pass keeps
the neighbours close to the work they scale (see :class:`Clock`).  The
kernel is the benchmark's own code, so no change to seqshape can move it.
Raw seconds are printed beside every calibrated figure.
"""
import time

REFERENCE_S = 0.015  # kernel time that defines one reference second


def _kernel(steps: int = 40_000) -> int:
    """Running-count reordering over plain lists, like the rank codec's inner loop."""
    order, pos, counts = list(range(40)), list(range(40)), [0] * 40
    for i in range(steps):
        symbol = (i * 7919 + (i >> 3)) % 40
        counts[symbol] += 1
        count, p = counts[symbol], pos[symbol]
        while p > 0 and counts[order[p - 1]] < count:
            other = order[p - 1]
            order[p - 1], order[p] = symbol, other
            pos[other] = p
            p -= 1
        pos[symbol] = p
    return order[0]


def calibrate() -> float:
    """Seconds the kernel takes now."""
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


def scale(before: float, after: float) -> float:
    """Factor from seconds to reference seconds for work between two calibrations."""
    return 2 * REFERENCE_S / (before + after)


class Clock:
    """Calibrations between back-to-back timed regions.

    ``lap()`` calibrates now and returns the factor for the region timed
    since the previous calibration, so each region is scaled by its own
    neighbours rather than by those of a longer stretch around it.
    """

    def __init__(self):
        self.last = calibrate()

    def lap(self) -> float:
        now = calibrate()
        factor = scale(self.last, now)
        self.last = now
        return factor
