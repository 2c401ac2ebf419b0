"""Machine-speed reference: a fixed unit of work timed between operations.

The benchmark shares a small virtual machine with other tenants, and the
same code runs up to ~1.7x slower for stretches of 10-20 s when the host is
busy. A fixed unit of work, run after every operation for a fixed share of
that operation's time, slows down by about the same factor. The benchmark
therefore divides each operation's time by the slowdown the units saw
around it: their mean time within WINDOW_S of the operation, over
NOMINAL_UNIT_S, the unit's time on a quiet host.

Measured over 150 s with the host's load changing, 15 s medians of the
scaled times varied by 2-4% (coefficient of variation) where the raw ones
varied by 12-14%. Pooling the units of a window matters: dividing each
operation by the units right after it alone (a ratio of two noisy times)
and dividing a median by the units' median both varied by 6-11%.

The unit mixes what the program spends its time on: small-matrix numpy
calls, one 4096-point FFT and float formatting. It uses nothing from the
program, but it runs in the same process right after each operation, so
the state an operation leaves behind (caches, allocator, FFT plans) can
move its time a little. test_bench.py has the control: a doubled cost comes
through the scaling as 1.96-2.09x, and adding FFT work to a pure-Python
operation moved the divisor by 2-6%. A claimed gain of that size must be
checked against the raw figures the run also reports.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# one unit on this 2-core machine when the host is quiet (median of 300)
NOMINAL_UNIT_S = 1.1e-3
# reference time run after each operation, as a share of that operation
SHARE = 0.25
# units within this span of time around an operation make its factor
WINDOW_S = 2.0

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.normal(size=(4, 4)) + 4.0 * np.eye(4)
_VECTOR = _RNG.normal(size=4)
_SIGNAL = _RNG.normal(size=4096) + 1j * _RNG.normal(size=4096)


def unit() -> float:
    total = 0.0
    for _ in range(25):
        x = np.linalg.solve(_MATRIX, _VECTOR)
        m = np.kron(_MATRIX[:2, :2], _MATRIX[2:, 2:]) @ _MATRIX
        total += float(x @ _VECTOR) + float(np.abs(m - m.T).max())
    spectrum = np.fft.fftshift(np.fft.fft(_SIGNAL))
    total += float(spectrum[100].real)
    text = ",".join(repr(float(v)) for v in spectrum.real[:300])
    return total + len(text)


class SpeedMeter:
    """Times reference units; a factor is the slowdown against nominal
    speed (above 1 when the machine is slower)."""

    def __init__(self):
        self.midpoints: list[float] = []  # perf_counter, in increasing order
        self.unit_times: list[float] = []

    def follow(self, busy_s: float, share: float = SHARE) -> None:
        """Run units for about `share` of an operation that took busy_s."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            unit()
            elapsed = time.perf_counter() - start
            self.midpoints.append(start + elapsed / 2)
            self.unit_times.append(elapsed)
            spent += elapsed
            if spent >= share * busy_s:
                break

    def factor(self, t: float) -> float:
        """Slowdown around perf_counter time t (the nearest unit if none is
        within the window)."""
        lo = bisect.bisect_left(self.midpoints, t - WINDOW_S / 2)
        hi = bisect.bisect_right(self.midpoints, t + WINDOW_S / 2)
        if lo == hi:
            lo = min(lo, len(self.midpoints) - 1)
            hi = lo + 1
        return statistics.fmean(self.unit_times[lo:hi]) / NOMINAL_UNIT_S

    def mean_factor(self) -> float:
        return statistics.fmean(self.unit_times) / NOMINAL_UNIT_S
