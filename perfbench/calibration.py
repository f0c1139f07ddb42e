"""Host-speed calibration for timed intervals.

The cores this benchmark gets are shared: on a 2-core VM the same pass ran
1.6x slower for seconds to minutes at a time, with no steal time to show it,
so a median over one run moved by up to 30% between runs. A fixed kernel of
2-D transforms and array arithmetic on a 256x256 grid slows down with it.
``SpeedClock`` times that kernel at the start and end of every measured
interval and, while it is entered, every ``period_s`` seconds inside it (from
a SIGALRM handler, between two bytecodes of the program). The time spent in
the kernel is left out of the interval. Each stretch of program time between
two kernel runs is scaled by REF_S over the median of the kernel times of the
WINDOW runs on either side of it (fewer at the ends of the interval), which
gives the interval in seconds of a host on which the kernel takes REF_S. The
median keeps one disturbed kernel run from skewing the stretches next to it.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

# seconds one kernel run takes on a quiet 2-core Xeon VM
REF_S = 0.0045
WINDOW = 3


class SpeedClock:
    def __init__(self, period_s=None, n=256, rounds=2):
        rng = np.random.default_rng(0)
        self.x0 = rng.standard_normal((n, n))
        self.k = np.add.outer(np.arange(n, dtype=float), np.arange(n // 2 + 1.0)) + 1.0
        self.rounds = rounds
        # bound now, so that a tracer installed later does not see the kernel
        self.rfft2, self.irfft2 = np.fft.rfft2, np.fft.irfft2
        self.period_s = period_s
        self.ticks = []       # (start, stop, kernel seconds) of every kernel run
        self.busy = False
        self.previous = None
        self.kernel()         # warm-up

    def kernel(self):
        t0 = perf_counter()
        x = self.x0
        for _ in range(self.rounds):
            y = self.irfft2(self.rfft2(x) / self.k, s=x.shape)
            x = 0.5 * x + np.tanh(y) * np.exp(-y * y) - np.sqrt(1.0 + x * x) / 3.0
            float(np.max(np.abs(x)))
        return perf_counter() - t0

    def mark(self):
        """Run the kernel now; return the index of this tick."""
        if self.busy:
            return None
        self.busy = True
        try:
            t0 = perf_counter()
            seconds = self.kernel()
            self.ticks.append((t0, perf_counter(), seconds))
            return len(self.ticks) - 1
        finally:
            self.busy = False

    def _on_alarm(self, signum, frame):
        self.mark()

    def __enter__(self):
        if self.period_s:
            self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self.previous)
        return False

    def measure(self, first, last):
        """(seconds, calibrated seconds) of the program between ticks first and last."""
        ticks = self.ticks[first:last + 1]
        kernel_s = [tick[2] for tick in ticks]
        raw = scaled = 0.0
        for k in range(len(ticks) - 1):
            gap = ticks[k + 1][0] - ticks[k][1]
            raw += gap
            scaled += gap * REF_S / statistics.median(
                kernel_s[max(0, k + 1 - WINDOW):k + 1 + WINDOW])
        return raw, scaled
