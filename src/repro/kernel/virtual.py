"""Deterministic virtual-time kernel.

Processes run on real OS threads but in strict lockstep: at any instant
exactly one thread holds the baton and runs, the others are parked at
lock gates.  This keeps the blocking programming style of the
JavaSymphony API while making every run fully deterministic — events are
ordered by ``(time, sequence-number)`` and all randomness flows from
seeded streams.

The technique is the classic thread-based discrete-event simulation —
pop the next event from a heap, advance the clock, resume the owning
process — with the scheduler step run by whichever thread gives up
control (:meth:`VirtualKernel._pass_baton`): a process that blocks, or a
worker whose body returned, pops events itself, runs call events inline
and opens the next process's gate directly; the thread in ``run()``
sleeps until nothing may run.  When the next process is the one blocking,
it simply carries on.  Call events run in scheduler context whichever
thread runs them.  Only the OS thread that runs an event changes, never
which event runs when.

A process is *scheduled onto* a thread, it does not own one: its body runs
on a :class:`_Worker` its kernel holds, which goes back to the kernel's
idle list when the body returns, and a finished process leaves
``kernel.processes``.  A kernel with no idle worker takes one from the
process-wide pool and starts a thread only when the pool is empty;
``shutdown()`` gives every worker it holds back to that pool, so a run of
fresh kernels (a Figure-5 sweep, a test suite) reuses one set of threads.

One process may run on another's thread: a process spawned
``completes=F`` starts on the thread of a process that is waiting,
untimed, for ``F`` and gives up the baton just before that start (the
*host*; :meth:`VirtualKernel._host`), so a synchronous request costs its
caller no OS switch at all.

Everything in PySymphony — network agents, object agents and user
applications — is written in a *blocking* style against this kernel,
exactly like JavaSymphony applications were written against JVM threads
and blocking Java/RMI.  The golden rule for code running on it: *only
block through kernel primitives* (``sleep``, ``VirtualFuture.wait``,
``VirtualChannel.get``, ...).  Blocking through raw ``time.sleep`` or a
``threading`` lock keeps the baton: no other process runs and simulated
time stands still until ``run()`` reports the stall as a
:class:`~repro.errors.KernelError` naming the process.

The kernel knows nothing of symsan.  A ``VirtualKernel()`` built while a
sanitizer is installed comes out as :mod:`repro.sanitizer.kernel`'s
``SanitizedKernel``, whose primitives add the happens-before edges, leak
tracking and wall-sleep watch around the methods here.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import os
import threading
import weakref
from collections import deque
from typing import Any, Callable

from repro import context as _context
from repro.errors import KernelError, SimDeadlockError, WaitTimeout
from repro.obs import spans as _spans
from repro.obs.events import PROC_SPAWN
from repro.obs.tracer import NULL_TRACER
from repro.sanitizer.core import NULL_SANITIZER, current_sanitizer


class ProcessState(enum.Enum):
    NEW = "new"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"
    FAILED = "failed"


_SWITCH_TIMEOUT = 60.0  # host seconds without a kernel event: a stall
_RELEASE_TIMEOUT = 5.0  # host seconds shutdown waits for one worker
#: the span context's thread-local, swapped inline around call events
_span_state = _spans._state
#: hot-path aliases: looking up an Enum member is a descriptor call
_BLOCKED, _RUNNING = ProcessState.BLOCKED, ProcessState.RUNNING


class _KernelShutdown(BaseException):
    """Raised inside process threads to unwind them on kernel shutdown.
    Derives from BaseException so application except-clauses don't eat it."""


class _Gate:
    """Where one thread parks until another hands it control: a lock that
    is held while the gate is shut.  Lock-step hand-off opens a gate
    exactly once per wait, which is all a bare lock can express — and all
    that is needed, at about half the cost of a ``threading.Event``."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()

    def set(self) -> None:
        self._lock.release()

    def wait(self, timeout: float = -1) -> bool:
        """Park until set (shutting the gate again); False on timeout."""
        return self._lock.acquire(timeout=timeout)


#: idle workers no kernel holds, shared by every kernel in the process
_POOL: list[_Worker] = []
#: worker thread names stay unique across kernels
_worker_names = itertools.count()
# A forked child has none of its parent's worker threads.
os.register_at_fork(after_in_child=_POOL.clear)


class _Worker:
    """A parked OS thread that runs process bodies, one at a time, for the
    kernel that holds it (``kernel``), then, once that kernel shuts down,
    waits in the process-wide pool for the next kernel to take it.  A
    pooled worker keeps nothing of its last kernel: no kernel, no process,
    no span context."""

    def __init__(self) -> None:
        self.kernel: VirtualKernel | None = None
        self.proc: VirtualProcess | None = None
        self.gate = _Gate()
        #: opened once the worker is back in the pool; a fresh gate per
        #: shutdown, so a late release pairs with no later wait
        self.released: _Gate | None = None
        self.thread = threading.Thread(
            target=self._serve, daemon=True,
            name=f"vworker-{next(_worker_names)}",
        )
        self.thread.start()

    @staticmethod
    def take(kernel: "VirtualKernel") -> "_Worker":
        """A worker for ``kernel``, which has none idle: a pooled one, or
        a new thread when the pool is empty."""
        try:
            worker = _POOL.pop()
        except IndexError:
            worker = _Worker()
        worker.kernel = kernel
        kernel._workers.append(worker)
        return worker

    def _serve(self) -> None:
        # No local may name the kernel or the process: this frame outlives
        # both while the worker waits in the pool.
        while True:
            self.gate.wait()  # idle: no timeout, there may never be work
            if self.kernel._shutting_down or not self.proc._run():
                self._release()
                continue
            self.proc = None
            self.kernel._idle.append(self)
            # The body is done: pass the baton on, perhaps to this very
            # worker (the next start event's gate is then already open).
            self.kernel._pass_baton()

    def _release(self) -> None:
        """Back to the pool once shutdown woke this worker, idle or inside
        a body it then unwound."""
        released = self.released
        self.kernel = self.proc = self.released = None
        _spans.set_context(None)
        _POOL.append(self)
        released.set()


class VirtualProcess:
    """A schedulable activity: one JVM thread in the paper."""

    def __init__(
        self,
        kernel: "VirtualKernel",
        pid: int,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        context: dict,
        completes: VirtualFuture | None = None,
    ) -> None:
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.context = context
        self._fn = fn
        self._args = args
        self._state = ProcessState.NEW
        #: the future only this process completes (``spawn(completes=)``)
        self._completes = completes
        #: the future this process waits on untimed, while it does
        self._awaits: VirtualFuture | None = None
        #: the process whose body runs on this one's thread meanwhile
        self._guest: VirtualProcess | None = None
        #: the gate and thread the body runs on, a worker's or its host's
        self._gate: _Gate | None = None
        self._thread: threading.Thread | None = None
        self._result: Any = None
        self._exc: BaseException | None = None
        self._wake_token = 0
        self._wake_reason: str | None = None
        #: why/where this process is currently blocked (wait-for dumps)
        self._wait_why: str | None = None
        self._wait_site: tuple[str, int] | None = None
        #: spawner's span context (installed before fn runs)
        self._span_ctx = None
        #: completed when the body finishes; made by the first join
        self._finished: VirtualFuture | None = None

    # -- Process API -------------------------------------------------------

    @property
    def state(self) -> ProcessState:
        return self._state

    @property
    def finished(self) -> bool:
        return self._state in (ProcessState.FINISHED, ProcessState.FAILED)

    @property
    def finished_future(self) -> VirtualFuture:
        """A future completed with the body's outcome when it finishes.
        Made on first ask: most processes are never joined."""
        fut = self._finished
        if fut is None:
            fut = self._finished = self.kernel._Future(self.kernel)
            if self.finished:
                fut._done = True
                fut._value, fut._exc = self._result, self._exc
        return fut

    def join(self, timeout: float | None = None) -> None:
        """Block the calling process until this one finishes."""
        if not self.finished and not self.finished_future.wait(timeout):
            raise WaitTimeout(f"join on {self.name} timed out")

    def result(self) -> Any:
        """The body's return value, re-raising what it died with.  Only
        valid after it finished."""
        if not self.finished:
            raise KernelError(f"process {self.name} has not finished")
        if self._exc is not None:
            raise self._exc
        return self._result

    # -- scheduler plumbing (kernel-internal) -------------------------------

    def _run(self) -> bool:
        """Run the body on the calling worker thread, then leave the
        process table.  False when kernel shutdown unwound the body: the
        worker goes back to the pool and touches no shared state."""
        kernel = self.kernel
        self._state = ProcessState.RUNNING
        # Unconditionally: the worker's previous process may have left a
        # context installed (``end_span(restore=False)`` does so on
        # purpose), and a process spawned from scheduler context has none.
        # Spans opened here chain to the spawner.  ``repro.context``'s
        # thread-local frame stack needs no such care on a worker: it is
        # only pushed through ``with scoped(...)``, so every body leaves
        # it balanced.  A guest on its host's thread is another matter
        # (``VirtualKernel._host``).
        _spans.set_context(self._span_ctx)
        try:
            self._result = self._fn(*self._args)
            self._state = ProcessState.FINISHED
        except _KernelShutdown:
            pass
        except BaseException as exc:  # noqa: BLE001 - captured for result()
            self._exc = exc
            self._state = ProcessState.FAILED
        if kernel._shutting_down:  # unwound, or the body ate the signal
            self._state = ProcessState.FAILED
            return False
        if self._exc is not None:
            kernel._note_crash(self, self._exc)
        # Reaped: handles still answer result()/join(), but the kernel
        # forgets the process and the process forgets its arguments (for
        # a message handler, the payload).
        self._fn = self._args = self._gate = self._thread = None
        del kernel.processes[self.pid]
        # Completing the future wakes joiners via heap events; safe here
        # because we still hold control.
        fut = self._finished
        if fut is not None:
            if self._exc is not None:
                fut.set_exception(self._exc)
            else:
                fut.set_result(self._result)
        return True

    def _block(self, why: str) -> str:
        """Block the calling (current) process until woken.

        Returns the wake reason ('wake' for a normal wake, 'timeout' for a
        timer wake)."""
        kernel = self.kernel
        if kernel._shutting_down:  # a finally clause blocking while unwound
            raise _KernelShutdown()
        self._state = _BLOCKED
        self._wait_why = why
        if not kernel._pass_baton(self):
            # Untimed, like an idle worker: a process may stay parked for
            # as long as the simulation runs (run() watches for stalls).
            self._gate.wait()
            if kernel._shutting_down:
                raise _KernelShutdown()
        self._wait_why = self._wait_site = None
        self._state = _RUNNING
        return self._wake_reason

    def _new_token(self) -> int:
        self._wake_token += 1
        return self._wake_token


def _forget(waiters: list | deque, entry: tuple) -> None:
    """Remove a timed-out waiter's own ``(process, token)`` entry, unless
    a wake already popped it.  Every timeout wake calls this, whether or
    not the wait then succeeds: an entry left behind is what the next
    ``put``/``release`` wakes — a token nobody waits on any more — and
    that wake-up is lost."""
    try:
        waiters.remove(entry)
    except ValueError:
        pass


class VirtualFuture:
    """A single-assignment result slot: the substrate for async RMI
    handles, RPC replies and migration confirmations."""

    def __init__(self, kernel: "VirtualKernel") -> None:
        self._kernel = kernel
        self._done = False
        self._value: Any = None
        self._exc: BaseException | None = None
        self._waiters: list[tuple[VirtualProcess, int]] = []
        self._callbacks: list[Callable[["VirtualFuture"], None]] = []

    def done(self) -> bool:
        return self._done

    def _complete(self) -> None:
        for proc, token in self._waiters:
            self._kernel._push_wake(self._kernel.now(), proc, token, "wake")
        self._waiters.clear()
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self._kernel.call_soon(cb, self)

    def set_result(self, value: Any) -> None:
        if self._done:
            raise KernelError("future already completed")
        self._done = True
        self._value = value
        self._complete()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise KernelError("future already completed")
        self._done = True
        self._exc = exc
        self._complete()

    def add_done_callback(self, cb: Callable[["VirtualFuture"], None]) -> None:
        """Run ``cb(self)`` in scheduler context once done (immediately if
        already done).  Callbacks must not block."""
        if self._done:
            self._kernel.call_soon(cb, self)
        else:
            self._callbacks.append(cb)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until done (True) or ``timeout`` passes (False)."""
        if self._done:
            return True
        proc = self._kernel._require_current()
        token = proc._new_token()
        self._waiters.append((proc, token))
        if timeout is not None:
            self._kernel._push_wake(
                self._kernel.now() + timeout, proc, token, "timeout"
            )
        else:
            # untimed: the one kind of wait that may host the process
            # that promised to complete this future
            proc._awaits = self
        reason = proc._block("future-wait")
        proc._awaits = None
        if reason == "timeout" and not self._done:
            _forget(self._waiters, (proc, token))
            return False
        return self._done

    def result(self, timeout: float | None = None) -> Any:
        """Block until done, then return the value or raise the
        exception; :class:`~repro.errors.WaitTimeout` on timeout."""
        if not self.wait(timeout):
            raise WaitTimeout("future result timed out")
        if self._exc is not None:
            raise self._exc
        return self._value

    def exception(self) -> BaseException | None:
        return self._exc


class VirtualChannel:
    """Unbounded FIFO between processes (agent mailboxes)."""

    def __init__(self, kernel: "VirtualKernel") -> None:
        self._kernel = kernel
        self._items: deque[Any] = deque()
        self._waiters: deque[tuple[VirtualProcess, int]] = deque()

    def put(self, item: Any) -> None:
        self._items.append(item)
        while self._waiters:
            proc, token = self._waiters.popleft()
            self._kernel._push_wake(self._kernel.now(), proc, token, "wake")
            break  # wake one consumer per item

    def get(self, timeout: float | None = None) -> Any:
        kernel = self._kernel
        proc = kernel._require_current()
        deadline = None if timeout is None else kernel.now() + timeout
        while not self._items:
            token = proc._new_token()
            self._waiters.append((proc, token))
            if deadline is not None:
                kernel._push_wake(deadline, proc, token, "timeout")
            reason = proc._block("channel-get")
            if reason == "timeout":
                _forget(self._waiters, (proc, token))
                if not self._items:
                    raise WaitTimeout("channel get timed out")
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)


class VirtualSemaphore:
    def __init__(self, kernel: "VirtualKernel", value: int) -> None:
        if value < 0:
            raise ValueError("semaphore value must be >= 0")
        self._kernel = kernel
        self._value = value
        self._waiters: deque[tuple[VirtualProcess, int]] = deque()

    def acquire(self, timeout: float | None = None) -> None:
        kernel = self._kernel
        proc = kernel._require_current()
        deadline = None if timeout is None else kernel.now() + timeout
        while self._value <= 0:
            token = proc._new_token()
            self._waiters.append((proc, token))
            if deadline is not None:
                kernel._push_wake(deadline, proc, token, "timeout")
            reason = proc._block("sem-acquire")
            if reason == "timeout":
                _forget(self._waiters, (proc, token))
                if self._value <= 0:
                    raise WaitTimeout("semaphore acquire timed out")
        self._value -= 1

    def release(self) -> None:
        self._value += 1
        if self._waiters:
            proc, token = self._waiters.popleft()
            self._kernel._push_wake(self._kernel.now(), proc, token, "wake")

    def __enter__(self) -> "VirtualSemaphore":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class VirtualKernel:
    """Event-heap scheduler with cooperative processes on pooled threads."""

    #: observability sink; worlds install the ambient tracer here so
    #: ``spawn`` can record process creation.  Null (and free) by default.
    tracer = NULL_TRACER
    #: agents test ``kernel.sanitizer.enabled`` before annotating shared
    #: state; only a ``SanitizedKernel`` holds a live one
    sanitizer = NULL_SANITIZER
    #: the primitives this kernel builds (a sanitizing kernel swaps in its
    #: own subclasses)
    _Process = VirtualProcess
    _Future = VirtualFuture
    _Channel = VirtualChannel
    _Semaphore = VirtualSemaphore

    def __new__(cls, strict: bool = False) -> "VirtualKernel":
        """The construction seam: built while a sanitizer is installed,
        a kernel comes out sanitizing (imported here, not at module load:
        ``repro.sanitizer.kernel`` builds on this module)."""
        if cls is VirtualKernel and current_sanitizer().enabled:
            from repro.sanitizer.kernel import SanitizedKernel
            cls = SanitizedKernel
        return object.__new__(cls)

    def __init__(self, strict: bool = False) -> None:
        #: strict=True re-raises the first unhandled process exception when
        #: run() returns; agents are expected to handle their own errors, so
        #: tests enable this to catch bugs.
        self.strict = strict
        self._time = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, tuple]] = []
        #: the running run(): latest event time it may reach, the process
        #: it waits for, what a call event raised in it, and the span
        #: context call events run under
        self._horizon = float("inf")
        self._main: VirtualProcess | None = None
        self._error: BaseException | None = None
        self._sched_ctx = None
        #: where run()'s thread sleeps while the baton is passed around
        self._sched_gate = _Gate()
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._current: VirtualProcess | None = None
        self._running = False
        self._shutting_down = False
        self._next_pid = 1
        self.crashes: list[tuple[VirtualProcess, BaseException]] = []
        #: live (not yet finished) processes by pid, in spawn order
        self.processes: dict[int, VirtualProcess] = {}
        _LIVE_KERNELS.add(self)

    # -- time & events -------------------------------------------------------

    def now(self) -> float:
        return self._time

    def _push(self, time: float, event: tuple) -> int:
        if time < self._time - 1e-12:
            raise KernelError(
                f"cannot schedule event in the past ({time} < {self._time})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, event))
        return self._seq

    def _push_wake(
        self, time: float, proc: VirtualProcess, token: int, reason: str
    ) -> None:
        self._push(time, ("wake", proc, token, reason))

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` in scheduler context at the current time.
        The callable must not block."""
        self._push(self._time, ("call", fn, args))

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        self._push(time, ("call", fn, args))

    # -- processes -----------------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str | None = None,
        context: dict | None = None,
        delay: float = 0.0,
        completes: VirtualFuture | None = None,
    ) -> VirtualProcess:
        """Create a process running ``fn(*args)``.  ``context`` defaults
        to the spawning process's context (shared reference), which is how
        the "current application" travels to async-invocation workers.

        ``completes=F`` is the spawner's promise that only this process
        completes ``F`` (directly or through an event it schedules) and
        that, once it has, it does not block again.  A process that waits
        untimed for ``F`` may then run this one's body on its own thread
        (:meth:`_host`).  A broken promise raises :class:`KernelError`
        out of ``run()``."""
        if context is None:
            parent = self._current
            context = parent.context if parent is not None else {}
        pid = self._next_pid
        self._next_pid += 1
        proc = self._Process(
            self, pid, name or f"proc-{pid}", fn, tuple(args), context,
            completes,
        )
        self.processes[pid] = proc
        self._push(self._time + delay, ("start", proc))
        if self.tracer.enabled:
            proc._span_ctx = _spans.current_context()
            self.tracer.emit(PROC_SPAWN, ts=self._time + delay,
                             actor=proc.name, pid=pid)
        return proc

    def sleep(self, duration: float) -> None:
        if duration < 0:
            raise ValueError("cannot sleep a negative duration")
        proc = self._require_current()
        token = proc._new_token()
        self._push_wake(self._time + duration, proc, token, "wake")
        proc._block("sleeping")

    def current_process(self) -> VirtualProcess | None:
        """The process the calling code runs in, or None outside any."""
        return self._current

    def current_process_name(self) -> str:
        """Name of the calling process, or "" outside any process."""
        proc = self._current
        return proc.name if proc is not None else ""

    def _require_current(self) -> VirtualProcess:
        proc = self._current
        if proc is None:
            raise KernelError(
                "blocking kernel operation called outside a process"
            )
        return proc

    def _note_crash(self, proc: VirtualProcess, exc: BaseException) -> None:
        self.crashes.append((proc, exc))

    # -- factories -----------------------------------------------------------

    def create_future(self) -> VirtualFuture:
        return self._Future(self)

    def create_channel(self) -> VirtualChannel:
        return self._Channel(self)

    def create_semaphore(self, value: int = 1) -> VirtualSemaphore:
        return self._Semaphore(self, value)

    # -- the scheduler loop ----------------------------------------------------

    def _pass_baton(self, me: VirtualProcess | None = None) -> bool:
        """The scheduler step, run by the thread that gives up control:
        run() starting, a blocking process (``me``), a worker whose body
        returned.  Pops events in heap order — call events run inline,
        stale wakes are skipped — up to the next process to resume: True
        if that is ``me``, else its gate is opened.  When none may run
        (heap empty, next event past the horizon, ``main`` finished, a
        call raised) run()'s gate is opened instead.  ``main`` finishes
        only in a body that just returned, so only ``me is None`` looks.

        The start of a process that promised to complete the future ``me``
        waits on untimed is no hand-off: ``me``'s thread runs that body
        itself, then steps on as a worker whose body returned would (a
        guest body only ever starts on its host's own thread)."""
        heap, horizon, main = self._heap, self._horizon, self._main
        self._current = None
        done = me is None and main is not None and main.finished
        while heap and not done:
            time, seq, event = heap[0]
            if time > horizon:
                break
            heapq.heappop(heap)
            self._time = time
            kind = event[0]
            if kind == "call":
                if self._call(event[1], event[2], seq):
                    continue
                break
            proc = event[1]
            if kind == "wake":
                if proc._state is not _BLOCKED or proc._wake_token != event[2]:
                    continue  # stale: already woken by the other path
                if proc._guest is not None:
                    # Its thread is inside the guest's body: the guest
                    # completed the future and blocked again, or someone
                    # else completed it.  Resuming either would be wrong.
                    self._error = KernelError(
                        f"broken completes= promise: {proc.name} woke "
                        f"while hosting {proc._guest.name}, which was to "
                        "complete the future it waits on and then not "
                        "block again"
                    )
                    break
                proc._wake_reason = event[3]
            elif (proc._completes is not None and me is not None
                    and proc._completes is me._awaits):
                if not self._host(me, proc):
                    raise _KernelShutdown()
                # what a worker whose body returned reads afresh; run()
                # may have returned and been called again meanwhile
                horizon, main = self._horizon, self._main
                done = main is not None and main.finished
                continue
            else:  # "start" on a worker
                if self._idle:
                    worker = self._idle.pop()
                else:
                    worker = _Worker.take(self)
                worker.proc = proc
                proc._gate = worker.gate
                proc._thread = worker.thread
            self._current = proc
            if proc is me:
                return True
            self._hand_off(proc)
            return False
        self._sched_gate.set()
        return False

    def _hand_off(self, proc: VirtualProcess) -> None:
        """Resume ``proc`` on its own thread; the caller parks next."""
        proc._gate.set()

    def _host(self, host: VirtualProcess, guest: VirtualProcess) -> bool:
        """Run ``guest``'s body on the thread of ``host``, which is
        blocked untimed on the future ``guest`` promised to complete; the
        guest parks at, and is resumed through, the host's gate.  The
        guest starts with thread-locals of its own — its spawner's span
        context, an empty ``repro.context`` stack — and the host gets its
        own back.  False when kernel shutdown unwound the guest (its host
        must unwind too)."""
        guest._gate, guest._thread = host._gate, host._thread
        host._guest = guest
        self._current = guest
        ctx = _spans.current_context()
        frames = _context.swap_frames([])
        finished = guest._run()
        _context.swap_frames(frames)
        _spans.set_context(ctx)
        host._guest = None
        self._current = None
        return finished

    def _call(self, fn: Callable[..., Any], args: tuple, seq: int) -> bool:
        """Run one call event in scheduler context on the calling thread
        (``seq``: its heap sequence number, the key its pusher can leave
        state under).  False when it raised; run() re-raises it.  The
        span context is written only where it differs: a thread-local
        write costs about as much as the rest of the dispatch, and
        untraced both sides are None."""
        own_ctx, sched_ctx = _span_state.ctx, self._sched_ctx
        if own_ctx is not sched_ctx:
            _span_state.ctx = sched_ctx
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self._error = exc
            return False
        finally:
            self._sched_ctx = left = _span_state.ctx
            if left is not own_ctx:
                _span_state.ctx = own_ctx
        return True

    def run(
        self,
        main: VirtualProcess | None = None,
        until: float | None = None,
    ) -> None:
        """Execute events.  With ``main``, return once it finished; with
        ``until``, stop at that time."""
        if self._running:
            raise KernelError("kernel.run() is not re-entrant")
        if self._current is not None:
            raise KernelError("kernel.run() called from inside a process")
        self._running = True
        self._main = main
        self._horizon = float("inf") if until is None else until + 1e-12
        self._sched_ctx = _spans.current_context()
        try:
            self._pass_baton()
            # A stall is no kernel event for a whole timeout: each event
            # pushed moves _seq, each popped shrinks the heap.
            progress = (self._seq, len(self._heap))
            while not self._sched_gate.wait(_SWITCH_TIMEOUT):
                seen, progress = progress, (self._seq, len(self._heap))
                if seen == progress:
                    proc = self._current
                    raise KernelError(
                        f"no kernel event for {_SWITCH_TIMEOUT} s while "
                        f"{proc.name if proc else 'a call event'} ran - "
                        "blocked outside kernel primitives?"
                    )
            error, self._error = self._error, None
            if error is not None:
                raise error
            if self._heap:
                if main is None or not main.finished:
                    self._time = until  # stopped at the horizon
            else:
                # Heap exhausted.
                if until is not None and self._time < until:
                    self._time = until
                if main is not None and not main.finished:
                    self._all_blocked(main)
        finally:
            self._running = False
            # what call events left installed stays with run()'s thread
            _spans.set_context(self._sched_ctx)
        if self.strict:
            # The main process's own exception propagates through result();
            # strict mode flags crashes in *background* processes, which
            # would otherwise be silently swallowed.
            background = [(p, e) for p, e in self.crashes if p is not main]
            if background:
                proc, exc = background[0]
                raise KernelError(
                    f"process {proc.name} crashed: {exc!r}"
                ) from exc

    def run_callable(
        self, fn: Callable[..., Any], *args: Any, name: str = "main"
    ) -> Any:
        """Spawn ``fn`` as a process, run until it finishes and return
        its result (raising its exception)."""
        proc = self.spawn(fn, *args, name=name)
        self.run(main=proc)
        return proc.result()

    def _all_blocked(self, main: VirtualProcess) -> None:
        """The heap ran dry with ``main`` still blocked: a hang."""
        raise SimDeadlockError(
            f"no more events but process {main.name} is still "
            f"{main.state.value}; wait-for graph: {self._blocked_dump()}"
        )

    def _blocked_dump(self) -> str:
        """One line per blocked process: what it waits on and where.
        Called with the heap exhausted, when every live process is
        blocked; spawn order keeps the text deterministic."""
        parts = []
        for proc in self.processes.values():
            why = proc._wait_why or "blocked"
            site = proc._wait_site
            where = f" at {site[0]}:{site[1]}" if site else ""
            parts.append(f"{proc.name}: {why}{where}")
        return "; ".join(parts) if parts else "<no blocked processes>"

    def shutdown(self) -> None:
        """Unwind every process still parked on a worker, give every
        worker back to the process-wide pool, and forget the processes.

        Finished simulations otherwise keep their workers (agent loops
        parked in kernel sleeps) for the life of the host process, where
        the next kernel cannot reuse them.  Idempotent; the kernel is
        unusable afterwards."""
        if self._shutting_down:
            return
        if self._running or self._current is not None:
            raise KernelError("cannot shut down a running kernel")
        self._unwind()

    def _unwind(self) -> None:
        """Shut down a kernel that is not running (``shutdown``'s work)."""
        self._shutting_down = True
        self._heap.clear()
        # Every worker is parked at its gate, idle or inside _block.  One
        # at a time: a blocked body's finally clauses run repro code, and
        # only one thread may do that at once.
        for worker in self._workers:
            if not worker.thread.is_alive():
                continue  # in a forked child: the thread stayed behind
            worker.released = released = _Gate()
            worker.gate.set()
            released.wait(_RELEASE_TIMEOUT)
        self._workers.clear()
        self._idle.clear()
        self.processes.clear()


#: every kernel ever created and not yet collected; test harnesses sweep
#: this to shut down leaked simulations between tests.
_LIVE_KERNELS: "weakref.WeakSet[VirtualKernel]" = weakref.WeakSet()


def shutdown_all_kernels() -> None:
    for kernel in list(_LIVE_KERNELS):
        try:
            kernel.shutdown()
        except KernelError:
            pass  # still running; its owner is responsible
