"""Wall time scaled to a fixed reference speed of the machine.

The machine's speed drifts by a quarter or more over tens of seconds when
other jobs share its cores, and that drift would swamp the effect of any
change to grouplab. So while a Clock is open, a timer signal runs a short
pure-Python reference loop every SAMPLE_EVERY_S (and once at each end), and
the time between two samples is scaled by the loop's measured rate at the
two samples relative to REFERENCE_RATE. Times are then seconds at the
reference speed, with the samples' own time left out. The loop is not
grouplab code, so no change to grouplab moves the scale. Python runs the
signal handler between bytecodes, so a sample waits for a long native call
to return; grouplab's numpy calls are short.
"""

from __future__ import annotations

import bisect
import signal
import time

CALIBRATION_ITERS = 30_000
REFERENCE_RATE = 25e6  # reference-loop iterations per second
SAMPLE_EVERY_S = 0.1


def calibration_loop() -> float:
    """Seconds the reference loop takes right now."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc += i
    return time.perf_counter() - started


class Clock:
    """Context manager sampling the machine's speed while it is open.

    After it closes, ``scaled(t0, t1)`` and ``raw(t0, t1)`` give the time
    between two ``time.perf_counter()`` readings taken inside it, at the
    reference speed and as measured, both without the samples.
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, float, float]] = []  # (start, end, loop seconds)
        self._sampling = False
        self._previous_handler = None

    def _sample(self, *_signal_args) -> None:
        if self._sampling:
            return
        self._sampling = True
        start = time.perf_counter()
        loop = calibration_loop()
        self._samples.append((start, time.perf_counter(), loop))
        self._sampling = False

    def __enter__(self) -> "Clock":
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()

    def _segments(self, t0: float, t1: float):
        """(seconds of [t0, t1] between samples k and k + 1, k) for each k it overlaps."""
        s = self._samples
        k = max(bisect.bisect_right([x[1] for x in s], t0) - 1, 0)
        while k + 1 < len(s) and s[k][1] < t1:
            overlap = min(t1, s[k + 1][0]) - max(t0, s[k][1])
            if overlap > 0:
                yield overlap, k
            k += 1

    def scaled(self, t0: float, t1: float) -> float:
        s = self._samples
        return sum(
            d * CALIBRATION_ITERS / REFERENCE_RATE / ((s[k][2] + s[k + 1][2]) / 2)
            for d, k in self._segments(t0, t1)
        )

    def sample_windows(self) -> list[tuple[float, float]]:
        return [(start, end) for start, end, _ in self._samples]

    def raw(self, t0: float, t1: float) -> float:
        return sum(d for d, _ in self._segments(t0, t1))
