"""Shutdown-time leak checks: unfinished futures, unawaited handles,
stranded channel getters.

Tracking is registered at creation/wait time with the site that created
the object (captured by ``core.caller_site``), so every leak report
points at application code, not kernel internals.  Registries hold weak
references to the kernels so a registry shared across kernels (the
ambient sanitizer is process-global) never keeps a dead kernel alive;
entries for collected kernels are pruned on the next ``collect``.

The tracked future/handle itself is kept alive by its entry: entries are
keyed by ``id()``, and a strong reference pins the object so CPython
cannot recycle the address for a later future — an aliased id would
silently overwrite an earlier leak's entry.  Entries are dropped on
completion/await, so only genuine leaks are pinned, and only until the
owning kernel's shutdown sweep.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable


class LeakRegistry:
    def __init__(self) -> None:
        #: id(future) -> (future, kernel weakref, creation site)
        self._futures: dict[
            int, tuple[Any, weakref.ref, tuple[str, int]]
        ] = {}
        #: id(handle) -> (handle, kernel weakref, creation site)
        self._handles: dict[
            int, tuple[Any, weakref.ref, tuple[str, int]]
        ] = {}
        #: ids of tracked handles that were polled (is_ready) but never
        #: awaited — a poll is not consumption, so the handle stays
        #: tracked; the leak report just names the sharper failure mode
        self._polled: set[int] = set()
        #: waiting thread id -> (kernel weakref, wait site)
        self._chan_waits: dict[int, tuple[weakref.ref, tuple[str, int]]] = {}

    # -- registration ---------------------------------------------------------

    def track_future(self, fut: Any, kernel: Any,
                     site: tuple[str, int]) -> None:
        self._futures[id(fut)] = (fut, weakref.ref(kernel), site)

    def future_completed(self, fut: Any) -> None:
        self._futures.pop(id(fut), None)

    def track_handle(self, handle: Any, kernel: Any,
                     site: tuple[str, int]) -> None:
        self._handles[id(handle)] = (handle, weakref.ref(kernel), site)

    def handle_awaited(self, handle: Any) -> None:
        self._handles.pop(id(handle), None)
        self._polled.discard(id(handle))

    def handle_polled(self, handle: Any) -> None:
        if id(handle) in self._handles:
            self._polled.add(id(handle))

    def chan_wait(self, tid: int, kernel: Any,
                  site: tuple[str, int]) -> None:
        self._chan_waits[tid] = (weakref.ref(kernel), site)

    def chan_wait_done(self, tid: int) -> None:
        self._chan_waits.pop(tid, None)

    # -- shutdown sweep -------------------------------------------------------

    def collect(
        self, kernel: Any, name_of: Callable[[int], str]
    ) -> list[tuple[str, str, tuple[str, int], str]]:
        """Leaks belonging to ``kernel``: (rule, message, site, symbol).

        Entries for this kernel (and for kernels already collected) are
        removed so a second shutdown does not re-report them.
        """
        leaks: list[tuple[str, str, tuple[str, int], str]] = []

        for key, (_fut, kernel_ref, site) in list(self._futures.items()):
            owner = kernel_ref()
            if owner is None or owner is kernel:
                del self._futures[key]
                if owner is kernel:
                    leaks.append((
                        "san-leak-future",
                        "future created here was never completed before "
                        "kernel shutdown (set_result/set_exception never "
                        "called)",
                        site,
                        "future",
                    ))

        for key, (_handle, kernel_ref, site) in list(self._handles.items()):
            owner = kernel_ref()
            if owner is None or owner is kernel:
                del self._handles[key]
                polled = key in self._polled
                self._polled.discard(key)
                if owner is kernel:
                    message = (
                        "ResultHandle created here was polled with "
                        "is_ready() but never awaited — the remote "
                        "result was computed and dropped"
                        if polled else
                        "ResultHandle created here was never awaited "
                        "(get_result never called) — the remote result "
                        "was computed and dropped"
                    )
                    leaks.append((
                        "san-leak-handle",
                        message,
                        site,
                        "ResultHandle",
                    ))

        for tid, (kernel_ref, site) in list(self._chan_waits.items()):
            owner = kernel_ref()
            if owner is None or owner is kernel:
                del self._chan_waits[tid]
                if owner is kernel:
                    leaks.append((
                        "san-leak-channel",
                        f"{name_of(tid)} was still blocked in "
                        "VirtualChannel.get() at kernel shutdown (stranded "
                        "getter: no put will ever arrive)",
                        site,
                        "VirtualChannel",
                    ))
        return leaks
