"""symsan: the runtime concurrency sanitizer.

The sanitizer is the dynamic counterpart of symlint: the same null-object
pattern as :mod:`repro.obs.tracer` (hook points throughout the kernels and
agents test ``sanitizer.enabled`` and pay nothing when it is off), but
instead of recording events it checks concurrency invariants while the
program runs:

* **Lockset race detection** (Eraser-style, refined with vector-clock
  happens-before edges) over the shared tables the runtime's correctness
  rests on: ObjectHolder object tables, AppOA/PubOA registries, NAS
  manager state, and the kernel's own bookkeeping.  Kernel primitives —
  spawn/join, Future complete/wait, Channel put/get, Semaphore
  release/acquire and the virtual kernel's call events — establish
  happens-before, so handoff patterns ("create, then publish through a
  future") do not false-positive.
* **Wait-for-graph deadlock detection** on blocking lock acquisition
  (wall-clock kernel) and all-blocked detection with a wait-for dump when
  the virtual kernel's event heap runs dry.
* **Leak checks** at kernel shutdown (opt-in via ``leaks=True``):
  futures never completed, ResultHandles never awaited, channels with
  stranded getters — each reported with its creation/wait site.

Findings share symlint's :class:`repro.analysis.base.Finding` /
:class:`repro.analysis.runner.Report` model, so ``--format json`` output
from ``python -m repro lint`` and ``python -m repro san`` diff the same
way.

Installation is ambient, exactly like the tracer: ``set_sanitizer()`` /
the ``sanitizing()`` context manager install a current sanitizer which
kernels adopt at construction time.
"""

from __future__ import annotations

import os
import sys
import threading
import weakref
from contextlib import contextmanager
from typing import Any, Iterator

from repro.analysis.base import Finding, Severity
from repro.sanitizer.leaks import LeakRegistry
from repro.sanitizer.lockset import LocksetDetector
from repro.sanitizer.waitgraph import TrackedLock, WaitForGraph

#: every rule symsan can emit, with its default severity (the dynamic
#: counterpart of ``repro.analysis.runner.known_rules``).
SAN_RULES: dict[str, Severity] = {
    "san-race": Severity.ERROR,
    "san-lock-deadlock": Severity.ERROR,
    "san-all-blocked": Severity.ERROR,
    "san-leak-future": Severity.WARNING,
    "san-leak-handle": Severity.WARNING,
    "san-leak-channel": Severity.WARNING,
    "san-migrate-pending": Severity.WARNING,
}

_OWN_DIRS = (
    os.path.join("repro", "sanitizer"),
    os.path.join("repro", "kernel"),
)


def caller_site(extra_skip: tuple[str, ...] = ()) -> tuple[str, int]:
    """(path, line) of the nearest stack frame outside the sanitizer and
    kernel internals — the product/application code that triggered a hook."""
    skip = _OWN_DIRS + extra_skip
    frame = sys._getframe(1)
    last = ("<runtime>", 0)
    while frame is not None:
        path = frame.f_code.co_filename
        last = (path, frame.f_lineno)
        if not any(part in path for part in skip):
            return last
        frame = frame.f_back
    return last


class NullSanitizer:
    """The do-nothing sanitizer every kernel holds by default.

    Every hook is a no-op and ``make_lock`` returns a plain
    ``threading.Lock``, so the instrumented runtime behaves (and costs)
    exactly as before when sanitizing is off.
    """

    enabled = False
    leaks = False

    def __init__(self) -> None:
        #: same surface as :class:`Sanitizer`, never fired.  The shared
        #: ``NULL_SANITIZER`` outlives every world, so subscribers
        #: register only when ``enabled``: a hook parked here would pin
        #: its owner for the life of the process.
        self.failure_hooks: list = []

    # -- lock factory --------------------------------------------------------

    def make_lock(self, name: str) -> Any:
        return threading.Lock()

    # -- shared-state access hooks ------------------------------------------

    def access(self, owner: str, field: str, write: bool = True,
               scope: Any = None) -> None:
        pass

    # -- happens-before edges ------------------------------------------------

    def hb_send(self, key: Any) -> None:
        pass

    def hb_recv(self, key: Any) -> None:
        pass

    def on_call_push(self, token: int) -> None:
        pass

    def on_call_run(self, token: int) -> None:
        pass

    def register_thread(self, name: str) -> None:
        pass

    def identity(self) -> int:
        return 0

    def swap_identity(self, tid: int) -> int:
        return 0

    # -- leak tracking -------------------------------------------------------

    def track_future(self, fut: Any, kernel: Any) -> None:
        pass

    def future_completed(self, fut: Any) -> None:
        pass

    def track_handle(self, handle: Any, kernel: Any) -> None:
        pass

    def handle_awaited(self, handle: Any) -> None:
        pass

    def handle_polled(self, handle: Any) -> None:
        pass

    def chan_wait(self, chan: Any, kernel: Any) -> None:
        pass

    def chan_wait_done(self, chan: Any) -> None:
        pass

    # -- runtime protocol hazards -------------------------------------------

    def migrate_with_pending(self, owner: str, obj_id: str,
                             pending: int) -> None:
        pass

    # -- detectors' report sinks --------------------------------------------

    def note_all_blocked(self, kernel: Any, dump: str,
                         site: tuple[str, int] | None = None) -> None:
        pass

    def check_leaks(self, kernel: Any) -> None:
        pass


NULL_SANITIZER = NullSanitizer()


class Sanitizer(NullSanitizer):
    """Records concurrency findings while the kernels run.

    Thread-safe: every hook may fire from arbitrary kernel process
    threads, so all detector state is guarded by one internal mutex
    (``_mu``).  The mutex is only ever acquired *after* any tracked
    runtime lock, never the other way around, so the sanitizer cannot
    introduce deadlocks of its own.
    """

    enabled = True

    def __init__(self, leaks: bool = False, max_findings: int = 200) -> None:
        self.leaks = leaks
        self.max_findings = max_findings
        self._mu = threading.Lock()
        self.findings: list[Finding] = []
        #: callbacks fired (outside ``_mu``) with every Finding as it is
        #: emitted — the flight recorder's sanitizer-side trigger surface
        #: (subscribers filter by ``finding.rule``)
        self.failure_hooks: list = []
        self._lockset = LocksetDetector()
        self._waitgraph = WaitForGraph()
        self._leaks = LeakRegistry()
        #: OS thread ident -> logical id of the process now running on it.
        #: Ids count down from -1, so they can collide neither with each
        #: other nor with the real idents unregistered threads go by.
        self._tids: dict[int, int] = {}
        self._next_tid = 0
        #: names (kernel process names) by logical id, for readable reports
        self._thread_names: dict[int, str] = {}
        #: sync-object clocks for happens-before transfer; weak keys so
        #: dead futures/channels/processes do not accumulate
        self._sync: "weakref.WeakKeyDictionary[Any, dict[int, int]]" = (
            weakref.WeakKeyDictionary()
        )
        #: virtual-kernel call-event clocks, keyed by heap sequence number
        #: (popped when the event runs, so this stays small)
        self._sync_tokens: dict[int, dict[int, int]] = {}
        #: scope objects (kernels) -> stable never-reused integer ids, so
        #: cells in different worlds never alias even when object ids and
        #: thread idents are reused (deterministic testbeds, Hypothesis)
        self._scopes: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._next_scope = 0

    # -- internals -----------------------------------------------------------

    def _emit(self, rule: str, message: str, site: tuple[str, int] | None,
              symbol: str = "") -> None:
        path, line = site if site is not None else ("<runtime>", 0)
        finding = Finding(
            rule=rule,
            severity=SAN_RULES[rule],
            path=path,
            line=line,
            col=0,
            message=message,
            symbol=symbol,
        )
        with self._mu:
            if len(self.findings) < self.max_findings:
                self.findings.append(finding)
        # Hooks can do arbitrary work (the flight recorder snapshots the
        # whole tracer ring); never run them under the sanitizer mutex.
        for hook in tuple(self.failure_hooks):
            hook(finding)

    def _name_of(self, tid: int) -> str:
        return self._thread_names.get(tid) or f"thread-{tid}"

    def _tid(self) -> int:
        """Who is calling: the logical id the thread last registered
        under, else its OS ident (scheduler context, foreign threads)."""
        ident = threading.get_ident()
        return self._tids.get(ident, ident)

    def register_thread(self, name: str) -> None:
        """The calling thread starts a new process called ``name``.

        A fresh identity every time: OS idents are recycled and a pooled
        worker runs many processes in turn, and accesses by the same
        identity never race."""
        with self._mu:
            self._next_tid -= 1
            self._tids[threading.get_ident()] = self._next_tid
            self._thread_names[self._next_tid] = name

    def identity(self) -> int:
        """The logical id the calling thread acts under now."""
        return self._tid()

    def swap_identity(self, tid: int) -> int:
        """Make the calling thread act under ``tid`` (one of
        :meth:`identity`'s answers) until the next swap or registration;
        returns the id it acted under before.  The virtual kernel runs
        call events under its scheduler's id on whichever thread."""
        ident = threading.get_ident()
        with self._mu:
            previous = self._tids.get(ident, ident)
            self._tids[ident] = tid
        return previous

    # -- runtime protocol hazards -------------------------------------------

    def migrate_with_pending(self, owner: str, obj_id: str,
                             pending: int) -> None:
        self._emit(
            "san-migrate-pending",
            f"{owner} migrated object {obj_id} with {pending} async "
            "invocation(s) still in flight; the stragglers were handed "
            "off to the tombstone redirect — await the handles (or raise "
            "migrate_drain_timeout) before migrating",
            caller_site(),
            symbol=obj_id,
        )

    # -- lock factory / wait-for graph ---------------------------------------

    def make_lock(self, name: str) -> TrackedLock:
        return TrackedLock(self, name)

    def _lock_wait(self, lock: TrackedLock) -> None:
        """Called before a blocking acquire; raises SanDeadlockError when
        the wait edge would close a cycle in the wait-for graph."""
        tid = self._tid()
        with self._mu:
            cycle = self._waitgraph.wait(tid, lock)
        if cycle is not None:
            message = self._describe_cycle(cycle, lock)
            self._emit("san-lock-deadlock", message, caller_site(),
                       symbol=lock.name)
            from repro.errors import SanDeadlockError

            raise SanDeadlockError(message)

    def _describe_cycle(
        self, cycle: list[tuple[int, TrackedLock]], lock: TrackedLock
    ) -> str:
        # cycle is [(owner_tid, owned_lock), ...]: the requester waits for
        # cycle[0][1], whose owner waits for cycle[1][1], ... and the final
        # owner is the requester itself.
        with self._mu:
            me = self._name_of(self._tid())
            hops = [f"{me} waits for '{cycle[0][1].name}'"]
            for i, (owner, owned) in enumerate(cycle):
                owner_name = self._name_of(owner)
                if i + 1 < len(cycle):
                    hops.append(
                        f"{owner_name} holds '{owned.name}' and waits "
                        f"for '{cycle[i + 1][1].name}'"
                    )
                else:
                    hops.append(f"{owner_name} holds '{owned.name}'")
        return (
            f"lock-acquisition cycle detected on blocking acquire of "
            f"'{lock.name}': " + "; ".join(hops)
        )

    def _lock_wait_done(self, lock: TrackedLock) -> None:
        tid = self._tid()
        with self._mu:
            self._waitgraph.wait_done(tid)

    def _lock_acquired(self, lock: TrackedLock) -> None:
        tid = self._tid()
        with self._mu:
            self._waitgraph.acquired(tid, lock)

    def _lock_released(self, lock: TrackedLock) -> None:
        tid = self._tid()
        with self._mu:
            self._waitgraph.released(tid, lock)

    # -- lockset race detection ----------------------------------------------

    def access(self, owner: str, field: str, write: bool = True,
               scope: Any = None) -> None:
        tid = self._tid()
        site = caller_site()
        with self._mu:
            sid = 0
            if scope is not None:
                sid = self._scopes.get(scope, 0)
                if sid == 0:
                    self._next_scope += 1
                    sid = self._next_scope
                    self._scopes[scope] = sid
            race = self._lockset.access(
                (sid, owner), field, tid,
                self._waitgraph.held_names(tid), write, site,
            )
        if race is not None:
            prev, cur = race
            self._emit(
                "san-race",
                f"data race on {owner}.{field}: {self._name_of(cur.tid)} "
                f"{'writes' if cur.write else 'reads'} at "
                f"{cur.site[0]}:{cur.site[1]} holding "
                f"{sorted(cur.locks) or '{}'} while "
                f"{self._name_of(prev.tid)} "
                f"{'wrote' if prev.write else 'read'} at "
                f"{prev.site[0]}:{prev.site[1]} holding "
                f"{sorted(prev.locks) or '{}'} with no common lock and no "
                "happens-before edge between them",
                site,
                symbol=f"{owner}.{field}",
            )

    # -- happens-before edges ------------------------------------------------

    def hb_send(self, key: Any) -> None:
        tid = self._tid()
        with self._mu:
            clock = self._sync.get(key)
            if clock is None:
                clock = {}
                self._sync[key] = clock
            self._lockset.clocks.send(tid, clock)

    def hb_recv(self, key: Any) -> None:
        tid = self._tid()
        with self._mu:
            clock = self._sync.get(key)
            if clock:
                self._lockset.clocks.recv(tid, clock)

    def on_call_push(self, token: int) -> None:
        tid = self._tid()
        with self._mu:
            clock = self._sync_tokens.setdefault(token, {})
            self._lockset.clocks.send(tid, clock)

    def on_call_run(self, token: int) -> None:
        tid = self._tid()
        with self._mu:
            clock = self._sync_tokens.pop(token, None)
            if clock:
                self._lockset.clocks.recv(tid, clock)

    # -- leak tracking -------------------------------------------------------

    def track_future(self, fut: Any, kernel: Any) -> None:
        if not self.leaks:
            return
        site = caller_site(extra_skip=(os.path.join("repro", "transport"),
                                       os.path.join("repro", "rmi")))
        with self._mu:
            self._leaks.track_future(fut, kernel, site)

    def future_completed(self, fut: Any) -> None:
        if not self.leaks:
            return
        with self._mu:
            self._leaks.future_completed(fut)

    def track_handle(self, handle: Any, kernel: Any) -> None:
        if not self.leaks:
            return
        site = caller_site(extra_skip=(os.path.join("repro", "transport"),
                                       os.path.join("repro", "rmi"),
                                       os.path.join("repro", "agents")))
        with self._mu:
            self._leaks.track_handle(handle, kernel, site)

    def handle_awaited(self, handle: Any) -> None:
        if not self.leaks:
            return
        with self._mu:
            self._leaks.handle_awaited(handle)

    def handle_polled(self, handle: Any) -> None:
        if not self.leaks:
            return
        with self._mu:
            self._leaks.handle_polled(handle)

    def chan_wait(self, chan: Any, kernel: Any) -> None:
        if not self.leaks:
            return
        tid = self._tid()
        site = caller_site(extra_skip=(os.path.join("repro", "transport"),))
        with self._mu:
            self._leaks.chan_wait(tid, chan, kernel, site)

    def chan_wait_done(self, chan: Any) -> None:
        if not self.leaks:
            return
        tid = self._tid()
        with self._mu:
            self._leaks.chan_wait_done(tid)

    # -- detector report sinks -----------------------------------------------

    def note_all_blocked(self, kernel: Any, dump: str,
                         site: tuple[str, int] | None = None) -> None:
        self._emit(
            "san-all-blocked",
            "virtual kernel ran out of events with processes still "
            f"blocked (a hang under a real scheduler); wait-for graph: "
            f"{dump}",
            site,
            symbol=type(kernel).__name__,
        )

    def check_leaks(self, kernel: Any) -> None:
        if not self.leaks:
            return
        with self._mu:
            leaks = self._leaks.collect(kernel, self._name_of)
        for rule, message, site, symbol in leaks:
            self._emit(rule, message, site, symbol)

    def reset_context(self) -> None:
        """Forget access history, clocks and leak registrations — findings
        are kept.

        A session-wide sanitizer (REPRO_SAN=1 pytest) must call this
        between tests: each test builds an independent world, so accesses
        from different tests are never really concurrent, but they reuse
        deterministic object ids (and all run their schedulers on the one
        pytest thread) and would otherwise alias into false races."""
        with self._mu:
            self._lockset = LocksetDetector()
            self._leaks = LeakRegistry()
            self._tids.clear()
            self._thread_names.clear()
            self._sync_tokens.clear()
            self._sync = weakref.WeakKeyDictionary()

    # -- reporting -----------------------------------------------------------

    def report(self):
        """A symlint-model Report of everything found so far."""
        from repro.analysis.runner import Report

        with self._mu:
            findings = list(self.findings)
        report = Report(findings=sorted(
            set(findings),
            key=lambda f: (f.path, f.line, f.rule, f.col, f.message),
        ))
        return report


_current: NullSanitizer = NULL_SANITIZER


def current_sanitizer() -> NullSanitizer:
    """The ambient sanitizer new kernels adopt (NULL_SANITIZER unless
    installed)."""
    return _current


def set_sanitizer(sanitizer: NullSanitizer | None) -> None:
    global _current
    _current = sanitizer if sanitizer is not None else NULL_SANITIZER


@contextmanager
def sanitizing(sanitizer: Sanitizer | None = None) -> Iterator[Sanitizer]:
    """Install ``sanitizer`` (a fresh one by default) for the with-block."""
    sanitizer = sanitizer if sanitizer is not None else Sanitizer()
    previous = _current
    set_sanitizer(sanitizer)
    try:
        yield sanitizer
    finally:
        set_sanitizer(previous)
