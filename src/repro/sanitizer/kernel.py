"""The sanitizing virtual kernel: symsan's hooks beside the plain one.

``VirtualKernel()`` built while a sanitizer is installed returns a
:class:`SanitizedKernel` (the seam is ``VirtualKernel.__new__``).  Each
primitive here runs the plain method through ``super()`` and adds its
happens-before edge around it: spawn → start, finish → join, complete →
wait, put → get, release → acquire, call push → run.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.errors import KernelError
from repro.kernel.virtual import (
    VirtualChannel,
    VirtualFuture,
    VirtualKernel,
    VirtualProcess,
    VirtualSemaphore,
)
from repro.sanitizer.core import caller_site, current_sanitizer


class SanitizedProcess(VirtualProcess):
    def join(self, timeout: float | None = None) -> None:
        super().join(timeout)
        # join edge: the body's end happens-before the joiner goes on
        self.kernel.sanitizer.hb_recv(self)

    def _run(self) -> bool:
        san = self.kernel.sanitizer
        san.register_thread(self.name)
        # spawn edge: everything the spawner did happens-before the body
        san.hb_recv(self)
        if not super()._run():
            return False
        # join edge, published whether or not anyone joins yet
        san.hb_send(self)
        return True

    def _block(self, why: str) -> str:
        self._wait_site = caller_site()
        return super()._block(why)


class SanitizedFuture(VirtualFuture):
    def _complete(self) -> None:
        san = self._kernel.sanitizer
        # publish the completer's clock before waking waiters
        san.hb_send(self)
        san.future_completed(self)
        super()._complete()

    def wait(self, timeout: float | None = None) -> bool:
        done = super().wait(timeout)
        if done:
            self._kernel.sanitizer.hb_recv(self)
        return done


class SanitizedChannel(VirtualChannel):
    def put(self, item: Any) -> None:
        self._kernel.sanitizer.hb_send(self)
        super().put(item)

    def get(self, timeout: float | None = None) -> Any:
        san = self._kernel.sanitizer
        if not self._items:
            san.chan_wait(self, self._kernel)
        try:
            item = super().get(timeout)
        finally:
            san.chan_wait_done(self)
        san.hb_recv(self)
        return item


class SanitizedSemaphore(VirtualSemaphore):
    def acquire(self, timeout: float | None = None) -> None:
        super().acquire(timeout)
        self._kernel.sanitizer.hb_recv(self)

    def release(self) -> None:
        self._kernel.sanitizer.hb_send(self)
        super().release()


class SanitizedKernel(VirtualKernel):
    """A :class:`VirtualKernel` bound to the sanitizer installed when it
    was built."""

    _Process = SanitizedProcess
    _Future = SanitizedFuture
    _Channel = SanitizedChannel
    _Semaphore = SanitizedSemaphore

    def __init__(self, strict: bool = False) -> None:
        super().__init__(strict)
        self.sanitizer = current_sanitizer()
        #: the identity call events run under: run()'s thread's
        self._sched_tid = 0

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        super().call_soon(fn, *args)
        # the pusher's clock travels with the event (keyed by its seq)
        self.sanitizer.on_call_push(self._seq)

    def call_at(self, time: float, fn: Callable[..., Any],
                *args: Any) -> None:
        super().call_at(time, fn, *args)
        self.sanitizer.on_call_push(self._seq)

    def spawn(self, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> VirtualProcess:
        proc = super().spawn(fn, *args, **kwargs)
        # spawn edge: the child's first action happens-after this point
        self.sanitizer.hb_send(proc)
        return proc

    def create_future(self) -> VirtualFuture:
        fut = super().create_future()
        self.sanitizer.track_future(fut, self)
        return fut

    def _host(self, host: VirtualProcess, guest: VirtualProcess) -> bool:
        # the guest registers an identity of its own; the host gets its back
        tid = self.sanitizer.identity()
        finished = super()._host(host, guest)
        self.sanitizer.swap_identity(tid)
        return finished

    def _call(self, fn: Callable[..., Any], args: tuple, seq: int) -> bool:
        san = self.sanitizer
        own_tid = san.swap_identity(self._sched_tid)
        # absorb the pusher's clock into the scheduler context
        san.on_call_run(seq)
        try:
            return super()._call(fn, args, seq)
        finally:
            san.swap_identity(own_tid)

    def run(self, main: VirtualProcess | None = None,
            until: float | None = None) -> None:
        """Run as the plain kernel does, with call events under this
        thread's identity and ``time.sleep`` watched: a raw sleep in a
        process is a ``san-wall-sleep`` finding, then sleeps as asked."""
        if self._running:  # before touching what the running run() owns
            raise KernelError("kernel.run() is not re-entrant")
        san = self.sanitizer
        self._sched_tid = san.identity()
        unwatched = time.sleep

        def watched(seconds: float) -> None:
            proc = self._current
            if proc is not None:
                san.wall_sleep(proc.name)
            unwatched(seconds)

        time.sleep = watched
        try:
            super().run(main, until)
        finally:
            time.sleep = unwatched

    def _all_blocked(self, main: VirtualProcess) -> None:
        self.sanitizer.note_all_blocked(self, self._blocked_dump(),
                                        main._wait_site)
        super()._all_blocked(main)

    def _unwind(self) -> None:
        # sweep leaks while blocked processes still hold their state
        self.sanitizer.check_leaks(self)
        super()._unwind()
