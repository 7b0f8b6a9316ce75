"""The mixed calibrator: what "one unit of host speed" means here.

Host time in PySymphony is spent in three primitives: Python bytecode,
futex hand-offs between lock-step threads, and ``Thread.start``.  One
calibration sample runs a fixed mix of exactly those (about 2.5 ms on the
reference box), so a round's wall time divided by the samples bracketing
it is a cost in *calibration units* that survives a slower or noisier
box.  A pure-CPU loop does not: when a neighbour loads the sibling core
the futex and thread-start shares slow down by a different factor than
bytecode does (README, "Why the mixed calibrator").
"""

from __future__ import annotations

import threading
import time

#: one calibration unit is defined to cost this long on the reference box
UNIT_S = 0.0025

_LOOP_ITERS = 20_000
_PING_PONGS = 60
_THREAD_STARTS = 12

#: bound before the traced run patches ``Thread.start`` to count the
#: kernel's threads, so calibration never shows up in that count
_thread_start = threading.Thread.start


def _noop() -> None:
    pass


class Calibrator:
    """Owns the parked helper thread the ping-pong leg talks to."""

    def __init__(self) -> None:
        self._ping = threading.Event()
        self._pong = threading.Event()
        self._stop = False
        self._helper = threading.Thread(
            target=self._serve, name="bench-calibrator", daemon=True
        )
        self._helper.start()

    def _serve(self) -> None:
        while True:
            self._ping.wait()
            self._ping.clear()
            if self._stop:
                return
            self._pong.set()

    def sample(self) -> float:
        """Run one calibration unit; returns its wall time in seconds."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(_LOOP_ITERS):
            acc += i * i % 7
        ping, pong = self._ping, self._pong
        for _ in range(_PING_PONGS):
            ping.set()
            pong.wait()
            pong.clear()
        for _ in range(_THREAD_STARTS):
            thread = threading.Thread(target=_noop)
            _thread_start(thread)
            thread.join()
        return time.perf_counter() - t0

    def close(self) -> None:
        self._stop = True
        self._ping.set()
        self._helper.join()
