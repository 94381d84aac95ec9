"""Elapsed time rescaled to a fixed reference CPU speed.

The benchmark runs on shared virtual CPUs whose speed drifts by tens of
percent within seconds and between minutes, for reasons outside the program:
a fixed pure-Python loop takes anywhere from 15 to 43 ms, and bytecap's own
work slows down and speeds up with it. A calibrated `Clock` times a fixed loop
that does not touch bytecap at every checkpoint. The wall time between two
checkpoints is divided by the mean loop time at its two ends and multiplied
by NOMINAL_LOOP_S, the loop's time at the reference speed, so an interval
reads as the seconds it would have taken on a CPU at that speed. The loop's
own time is left out of every interval.

An uncalibrated clock is plain `time.perf_counter` with no loops; the traced
run uses it so that its spans and wall times stay in raw seconds.
"""

from __future__ import annotations

import random
import struct
import time
from contextlib import contextmanager

NOMINAL_LOOP_S = 0.020  # the loop's seconds at the reference speed
# The loop walks a 2 MiB buffer the way bytecap's pcap and views code walks
# a capture: struct unpacks at fixed strides, bytes slices, int-keyed dict
# inserts. Such a loop follows the program's slow-downs more closely than a
# loop that stays in the first-level cache. It allocates no objects the
# garbage collector tracks, so it never triggers a collection of the
# program's heap.
LOOP_BUFFER = random.Random(0).randbytes(1 << 21)
LOOP_STRIDE = 96


def calibration_loop() -> float:
    """Seconds one fixed pass over LOOP_BUFFER takes."""
    start = time.perf_counter()
    buf, unpack, table = LOOP_BUFFER, struct.unpack_from, {}
    for off in range(0, len(buf) - 64, LOOP_STRIDE):
        a, b, c = unpack("<IHH", buf, off)
        table[(a & 4095) << 16 | b] = buf[off + 8:off + 8 + (c & 63)]
    return time.perf_counter() - start


class Clock:
    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.loops: list[float] = []  # seconds of every calibration loop
        self.reference_s = 0.0  # rescaled seconds since the clock started
        self._last_loop = calibration_loop() if calibrated else 0.0
        self._last = time.perf_counter()

    @property
    def loop_s(self) -> float:
        """Wall seconds spent in calibration loops so far."""
        return sum(self.loops)

    def now(self) -> float:
        """A checkpoint: reference seconds since the clock started
        (perf_counter seconds when uncalibrated)."""
        t = time.perf_counter()
        if not self.calibrated:
            return t
        loop = calibration_loop()
        self.loops.append(loop)
        self.reference_s += (t - self._last) * NOMINAL_LOOP_S / ((self._last_loop + loop) / 2)
        self._last_loop = loop
        self._last = time.perf_counter()
        return self.reference_s

    @contextmanager
    def checkpoints(self, module, attrs, every: int = 1):
        """Temporarily add a checkpoint after every `every`-th call of each
        module.<attr>, so that a long call into the program is rescaled
        piece by piece."""
        if not self.calibrated:
            yield
            return
        saved = {attr: getattr(module, attr) for attr in attrs}

        def after(fn):
            calls = 0

            def wrapped(*args, **kwargs):
                nonlocal calls
                result = fn(*args, **kwargs)
                calls += 1
                if calls % every == 0:
                    self.now()
                return result
            return wrapped

        try:
            for attr, fn in saved.items():
                setattr(module, attr, after(fn))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)
