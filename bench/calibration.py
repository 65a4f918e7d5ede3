"""Host-speed calibration for the benchmark's timings.

On the reference machine (2 vCPUs, Python 3.11) host speed swings by up to
40% within a second while CPU time equals wall time (no steal), so raw pass
times of runs a few minutes apart differ by more than any useful bound.  A
speed probe on the other vCPU does not track the swings, so the benchmark
samples host speed in its own process: a fixed calibration unit runs before
and after every pass and, from a SIGALRM timer, every SAMPLE_INTERVAL_S
during it.  A pass timing is then

    scaled = (wall - time spent in samples) * CAL_REF_S / mean unit time

that is, seconds at the host speed at which the unit takes CAL_REF_S.  On
`haar-rounds` the in-pass samples correlate 0.97 with pass time, against
0.79 for samples taken only at the pass boundaries.

The unit is the program's kind of work (tiny numpy calls on a (2, 3, 2, 3)
array between Python bookkeeping) but calls no rfqkd code, so a change to
the program moves the scaled time and not the unit.  The raw figures are
kept next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

CAL_REF_S = 0.0005  # reference time of one unit
SAMPLE_INTERVAL_S = 0.025  # in-pass sampling period; one unit costs ~2-3% of it
BOUNDARY_UNITS = 4

_STATE = None


def calibrate(units: int = 1) -> float:
    """Mean seconds per calibration unit over `units` units; imports numpy on first use."""
    global _STATE
    import numpy as np

    if _STATE is None:
        _STATE = (np.arange(36, dtype=complex).reshape(2, 3, 2, 3) / 36.0,
                  np.array([[0.6, 0.8j], [0.8j, 0.6]]))
    amps, u = _STATE
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(40 * units):
        out = np.einsum("ij,jbkc->ibkc", u, amps)
        acc += float(np.sum(np.abs(np.where(out.real > 0, out, 0.0)) ** 2))
        x = 0
        for j in range(50):
            x += j * k
        record = {"k": k, "x": x, "acc": acc}
        acc += len(record)
    return (time.perf_counter() - t0) / units


class SpeedScale:
    """Times calls at the reference host speed; keeps every sample.

    `raw` holds each call's wall time less the time spent in samples,
    `scaled` the same at the reference speed, and `wall` the plain wall time.
    """

    def __init__(self):
        self.last = calibrate(BOUNDARY_UNITS)
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.wall: list[float] = []
        self._samples: list[float] = []
        self._spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(calibrate())
        self._spent += time.perf_counter() - t0

    def measure(self, fn, *args):
        """Call fn(*args) with in-call sampling armed; returns its result."""
        self._samples, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        now = calibrate(BOUNDARY_UNITS)
        unit = statistics.fmean(self._samples + [self.last, now])
        self.last = now
        self.wall.append(wall)
        self.raw.append(wall - self._spent)
        self.scaled.append(self.raw[-1] * CAL_REF_S / unit)
        return result


def scale_elsewhere(seconds: float, unit: float) -> float:
    """Scale a timing whose calibration was taken in another process."""
    return seconds * CAL_REF_S / unit
