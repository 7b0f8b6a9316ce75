"""symsan: the runtime concurrency sanitizer.

The sanitizer is the dynamic counterpart of symlint.  It sits beside the
kernel rather than inside it: a ``VirtualKernel()`` built while one is
installed is a :class:`~repro.sanitizer.kernel.SanitizedKernel`, whose
primitives call the hooks below around the plain kernel's methods, and
the plain kernel calls none.  Agents annotate a write to one of their
shared tables with :func:`note_write`, the one place that tests
``enabled`` for them.  Instead of recording events,
it checks concurrency invariants while the program runs:

* **Happens-before race detection** (vector clocks) over the shared
  tables the runtime's correctness rests on: ObjectHolder object tables,
  AppOA/PubOA registries, NAS manager state, and the kernel's own
  bookkeeping.  Kernel primitives — spawn/join, future complete/wait,
  channel put/get, semaphore release/acquire and call events — establish
  happens-before, so handoff patterns ("create, then publish through a
  future") do not false-positive.  Two accesses from processes that no
  such edge orders race, even though the kernel happens to run them one
  after the other.
* **All-blocked detection** with a wait-for dump when the kernel's event
  heap runs dry.
* **Leak checks** at kernel shutdown (opt-in via ``leaks=True``):
  futures never completed, ResultHandles never awaited, channels with
  stranded getters — each reported with its creation/wait site.
* **Wall-clock sleeps** in kernel processes: while a sanitized kernel is
  inside ``run()``, ``time.sleep`` is wrapped, and a call made while
  that kernel has a current process is reported with the process and
  the call site.  The process holds the kernel's baton for the whole
  sleep while virtual time stands still.

Findings share symlint's :class:`repro.analysis.base.Finding` /
:class:`repro.analysis.runner.Report` model, so ``--format json`` output
from ``python -m repro lint`` and ``python -m repro san`` diff the same
way.

Installation is ambient, exactly like the tracer: ``set_sanitizer()`` /
the ``sanitizing()`` context manager install a current sanitizer, and a
kernel built meanwhile is a sanitizing one bound to it.
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

#: every rule symsan can emit, with its default severity (the dynamic
#: counterpart of ``repro.analysis.runner.known_rules``).
SAN_RULES: dict[str, Severity] = {
    "san-race": Severity.ERROR,
    "san-all-blocked": Severity.ERROR,
    "san-leak-future": Severity.WARNING,
    "san-leak-handle": Severity.WARNING,
    "san-leak-channel": Severity.WARNING,
    "san-wall-sleep": Severity.WARNING,
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
    """The do-nothing sanitizer a plain kernel holds.

    It has no hooks: :func:`note_write` and ``ResultHandle`` test
    ``enabled`` before calling one, and only a
    :class:`~repro.sanitizer.kernel.SanitizedKernel` (built while a live
    :class:`Sanitizer` is installed) calls the kernel's hooks.
    """

    enabled = False
    leaks = False


NULL_SANITIZER = NullSanitizer()


def note_write(kernel: Any, owner: str, field: str) -> None:
    """Tell ``kernel``'s sanitizer that the running process is about to
    write ``owner.field`` of a shared agent table (nothing unless it is
    sanitizing).  Findings name the caller's line: this frame lies under
    ``repro/sanitizer``, which :func:`caller_site` skips."""
    san = kernel.sanitizer
    if san.enabled:
        san.access(owner, field, scope=kernel)


class Sanitizer(NullSanitizer):
    """Records concurrency findings while the kernels run.

    Not thread-safe, by contract: hooks fire from the thread that holds
    the kernel's baton, so one thread at a time calls in.  Which process
    is calling is still told by thread (``register_thread``), because a
    process body runs on a pooled worker or its host's thread.
    """

    enabled = True

    #: findings kept; later ones are counted in ``overflow``, not kept
    MAX_FINDINGS = 200

    def __init__(self, leaks: bool = False) -> None:
        self.leaks = leaks
        self.findings: list[Finding] = []
        #: findings emitted past ``MAX_FINDINGS``
        self.overflow = 0
        self._lockset = LocksetDetector()
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
        if len(self.findings) >= self.MAX_FINDINGS:
            self.overflow += 1
            return
        path, line = site if site is not None else ("<runtime>", 0)
        self.findings.append(Finding(
            rule=rule,
            severity=SAN_RULES[rule],
            path=path,
            line=line,
            col=0,
            message=message,
            symbol=symbol,
        ))

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
        previous = self._tids.get(ident, ident)
        self._tids[ident] = tid
        return previous

    # -- wall-clock sleeps ---------------------------------------------------

    def wall_sleep(self, process: str) -> None:
        self._emit(
            "san-wall-sleep",
            f"process {process} sleeps on the wall clock (time.sleep): it "
            "holds the kernel's baton while virtual time stands still; "
            "use kernel.sleep",
            caller_site(),
            symbol=process,
        )

    # -- race detection ------------------------------------------------------

    def access(self, owner: str, field: str, write: bool = True,
               scope: Any = None) -> None:
        tid = self._tid()
        site = caller_site()
        sid = 0
        if scope is not None:
            sid = self._scopes.get(scope, 0)
            if sid == 0:
                self._next_scope += 1
                sid = self._next_scope
                self._scopes[scope] = sid
        race = self._lockset.access((sid, owner), field, tid, write, site)
        if race is not None:
            prev, cur = race
            self._emit(
                "san-race",
                f"data race on {owner}.{field}: {self._name_of(cur.tid)} "
                f"{'writes' if cur.write else 'reads'} at "
                f"{cur.site[0]}:{cur.site[1]} while "
                f"{self._name_of(prev.tid)} "
                f"{'wrote' if prev.write else 'read'} at "
                f"{prev.site[0]}:{prev.site[1]} with no happens-before "
                "edge between them",
                site,
                symbol=f"{owner}.{field}",
            )

    # -- happens-before edges ------------------------------------------------

    def hb_send(self, key: Any) -> None:
        tid = self._tid()
        clock = self._sync.get(key)
        if clock is None:
            clock = {}
            self._sync[key] = clock
        self._lockset.clocks.send(tid, clock)

    def hb_recv(self, key: Any) -> None:
        tid = self._tid()
        clock = self._sync.get(key)
        if clock:
            self._lockset.clocks.recv(tid, clock)

    def on_call_push(self, token: int) -> None:
        tid = self._tid()
        clock = self._sync_tokens.setdefault(token, {})
        self._lockset.clocks.send(tid, clock)

    def on_call_run(self, token: int) -> None:
        tid = self._tid()
        clock = self._sync_tokens.pop(token, None)
        if clock:
            self._lockset.clocks.recv(tid, clock)

    # -- leak tracking -------------------------------------------------------

    def track_future(self, fut: Any, kernel: Any) -> None:
        if not self.leaks:
            return
        site = caller_site(extra_skip=(os.path.join("repro", "transport"),
                                       os.path.join("repro", "rmi")))
        self._leaks.track_future(fut, kernel, site)

    def future_completed(self, fut: Any) -> None:
        if not self.leaks:
            return
        self._leaks.future_completed(fut)

    def track_handle(self, handle: Any, kernel: Any) -> None:
        if not self.leaks:
            return
        site = caller_site(extra_skip=(os.path.join("repro", "transport"),
                                       os.path.join("repro", "rmi"),
                                       os.path.join("repro", "agents")))
        self._leaks.track_handle(handle, kernel, site)

    def handle_awaited(self, handle: Any) -> None:
        if not self.leaks:
            return
        self._leaks.handle_awaited(handle)

    def handle_polled(self, handle: Any) -> None:
        if not self.leaks:
            return
        self._leaks.handle_polled(handle)

    def chan_wait(self, chan: Any, kernel: Any) -> None:
        if not self.leaks:
            return
        tid = self._tid()
        site = caller_site(extra_skip=(os.path.join("repro", "transport"),))
        self._leaks.chan_wait(tid, kernel, site)

    def chan_wait_done(self, chan: Any) -> None:
        if not self.leaks:
            return
        tid = self._tid()
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
            symbol="VirtualKernel",
        )

    def check_leaks(self, kernel: Any) -> None:
        if not self.leaks:
            return
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
