"""Eraser-style lockset race detection with vector-clock happens-before.

An access races with a prior access when all of the following hold:

* different threads, at least one side is a write,
* the two locksets are disjoint (no common lock held), and
* no happens-before path connects them (the prior access's epoch is not
  covered by the current thread's vector clock).

Pure Eraser reports lock-free handoff patterns ("initialize, then
publish through a future") as races; the happens-before refinement is
what lets symsan instrument the kernels' real synchronization idioms
without drowning in false positives.  All methods here are called with
the sanitizer's internal mutex held, so the detector itself keeps no
locks.
"""

from __future__ import annotations

from dataclasses import dataclass


class VectorClocks:
    """Vector clocks, keyed by the sanitizer's logical thread ids.

    Every kernel process gets an id of its own when it starts
    (``Sanitizer.register_thread``) — never the OS thread's ident, which
    the OS recycles and which virtual-kernel processes share by running
    one after another on a pooled worker; threads that never register (the
    virtual kernel's scheduler context) go by their ident.  ``send``/
    ``recv`` transfer clocks through sync objects (futures, channels,
    processes, call events).
    """

    def __init__(self) -> None:
        self._clocks: dict[int, dict[int, int]] = {}

    def _clock(self, tid: int) -> dict[int, int]:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = {tid: 1}
            self._clocks[tid] = clock
        return clock

    def epoch(self, tid: int) -> int:
        """The thread's own component — stamps accesses."""
        return self._clock(tid)[tid]

    def send(self, tid: int, target: dict[int, int]) -> None:
        """Merge ``tid``'s clock into a sync object's clock, then tick so
        later events on ``tid`` are not ordered before the release."""
        clock = self._clock(tid)
        for other, stamp in clock.items():
            if target.get(other, 0) < stamp:
                target[other] = stamp
        clock[tid] += 1

    def recv(self, tid: int, source: dict[int, int]) -> None:
        """Merge a sync object's clock into ``tid``'s clock (acquire)."""
        clock = self._clock(tid)
        for other, stamp in source.items():
            if clock.get(other, 0) < stamp:
                clock[other] = stamp

    def ordered(self, tid: int, epoch: int, observer: int) -> bool:
        """True when the event stamped (tid, epoch) happens-before the
        current point of ``observer``."""
        if tid == observer:
            return True
        return self._clocks.get(observer, {}).get(tid, 0) >= epoch


@dataclass
class Access:
    """One recorded access to a (owner, field) cell."""

    tid: int
    epoch: int
    write: bool
    locks: frozenset[str]
    site: tuple[str, int]


class LocksetDetector:
    """Tracks the last read and last write per thread for every
    instrumented cell and flags the first race seen on each cell."""

    def __init__(self) -> None:
        self.clocks = VectorClocks()
        #: (owner, field) -> {(tid, is_write): last such access}; owner is
        #: any hashable (the sanitizer passes (scope_id, name) tuples)
        self._history: dict[tuple, dict[tuple[int, bool], Access]] = {}
        self._reported: set[tuple] = set()

    def access(
        self,
        owner,
        field: str,
        tid: int,
        locks: frozenset[str],
        write: bool,
        site: tuple[str, int],
    ) -> tuple[Access, Access] | None:
        """Record an access; return (previous, current) on a fresh race."""
        key = (owner, field)
        current = Access(tid, self.clocks.epoch(tid), write, locks, site)
        history = self._history.setdefault(key, {})
        race: tuple[Access, Access] | None = None
        if key not in self._reported:
            for previous in history.values():
                if previous.tid == tid:
                    continue
                if not (previous.write or write):
                    continue
                if previous.locks & locks:
                    continue
                if self.clocks.ordered(previous.tid, previous.epoch, tid):
                    continue
                self._reported.add(key)
                race = (previous, current)
                break
        history[(tid, write)] = current
        return race
