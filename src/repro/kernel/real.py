"""Wall-clock kernel: the same primitives mapped onto preemptive threads.

This backend exists to prove the agent and application code is genuinely
concurrent, not an artifact of the simulator — the JavaSymphony runtime
was a real multi-threaded system.  Time is wall time (optionally dilated
by ``time_scale`` so tests with long simulated periods finish quickly).
"""

from __future__ import annotations

import queue
import threading
import time as _time
from typing import Any, Callable

from repro.errors import KernelError, WaitTimeout
from repro.kernel.base import (
    Channel,
    Future,
    Kernel,
    Process,
    ProcessState,
    Semaphore,
)
from repro.obs import spans as _spans
from repro.obs.events import PROC_SPAWN
from repro.sanitizer.core import current_sanitizer


class RealProcess(Process):
    def __init__(
        self,
        kernel: "RealKernel",
        pid: int,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        context: dict,
        delay: float,
    ) -> None:
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.context = context
        self._fn = fn
        self._args = args
        self._delay = delay
        self._state = ProcessState.NEW
        self._result: Any = None
        self._exc: BaseException | None = None
        #: spawner's span context (installed before fn runs, when traced)
        self._span_ctx = None
        self._done_evt = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name=f"rproc-{pid}-{name}", daemon=True
        )

    @property
    def state(self) -> ProcessState:
        return self._state

    def _main(self) -> None:
        from repro.kernel.virtual import _KernelShutdown

        if self._delay > 0:
            _time.sleep(self._delay * self.kernel.time_scale)
        self.kernel._register_thread(self)
        san = self.kernel.sanitizer
        if san.enabled:
            san.register_thread(self.name)
            # spawn edge: everything the spawner did happens-before us
            san.hb_recv(self)
        self._state = ProcessState.RUNNING
        if self._span_ctx is not None:
            # Async continuation: spans opened here chain to the spawner.
            _spans.set_context(self._span_ctx)
        try:
            self._result = self._fn(*self._args)
            self._state = ProcessState.FINISHED
        except _KernelShutdown:
            self._state = ProcessState.FAILED
        except BaseException as exc:  # noqa: BLE001 - captured for result()
            self._exc = exc
            self._state = ProcessState.FAILED
            self.kernel._note_crash(self, exc)
        finally:
            if san.enabled:
                # join edge: publish our clock before waking joiners
                san.hb_send(self)
            self._done_evt.set()

    def join(self, timeout: float | None = None) -> None:
        scaled = None if timeout is None else timeout * self.kernel.time_scale
        if not self._done_evt.wait(scaled):
            raise WaitTimeout(f"join on {self.name} timed out")
        if self.kernel.sanitizer.enabled:
            self.kernel.sanitizer.hb_recv(self)

    def result(self) -> Any:
        if not self.finished:
            raise KernelError(f"process {self.name} has not finished")
        if self._exc is not None:
            raise self._exc
        return self._result


class RealFuture(Future):
    def __init__(self, kernel: "RealKernel") -> None:
        self._kernel = kernel
        self._evt = threading.Event()
        self._lock = threading.Lock()
        self._value: Any = None
        self._exc: BaseException | None = None

    def done(self) -> bool:
        return self._evt.is_set()

    def set_result(self, value: Any) -> None:
        with self._lock:
            if self._evt.is_set():
                raise KernelError("future already completed")
            self._value = value
            self._complete()
            self._evt.set()

    def set_exception(self, exc: BaseException) -> None:
        with self._lock:
            if self._evt.is_set():
                raise KernelError("future already completed")
            self._exc = exc
            self._complete()
            self._evt.set()

    def _complete(self) -> None:
        san = self._kernel.sanitizer
        if san.enabled:
            # publish the completer's clock before waking waiters
            san.hb_send(self)
            san.future_completed(self)

    def wait(self, timeout: float | None = None) -> bool:
        scaled = None if timeout is None else timeout * self._kernel.time_scale
        done = self._evt.wait(scaled)
        if done and self._kernel.sanitizer.enabled:
            self._kernel.sanitizer.hb_recv(self)
        return done

    def result(self, timeout: float | None = None) -> Any:
        if not self.wait(timeout):
            raise WaitTimeout("future result timed out")
        if self._exc is not None:
            raise self._exc
        return self._value

    def exception(self) -> BaseException | None:
        return self._exc


class RealChannel(Channel):
    def __init__(self, kernel: "RealKernel") -> None:
        self._kernel = kernel
        self._queue: queue.Queue = queue.Queue()

    def put(self, item: Any) -> None:
        if self._kernel.sanitizer.enabled:
            self._kernel.sanitizer.hb_send(self)
        self._queue.put(item)

    def get(self, timeout: float | None = None) -> Any:
        scaled = None if timeout is None else timeout * self._kernel.time_scale
        san = self._kernel.sanitizer
        if san.enabled:
            san.chan_wait(self, self._kernel)
        try:
            item = self._queue.get(timeout=scaled)
        except queue.Empty:
            if san.enabled:
                san.chan_wait_done(self)
            raise WaitTimeout("channel get timed out") from None
        if san.enabled:
            san.chan_wait_done(self)
            san.hb_recv(self)
        return item

    def __len__(self) -> int:
        return self._queue.qsize()


class RealSemaphore(Semaphore):
    def __init__(self, kernel: "RealKernel", value: int) -> None:
        self._kernel = kernel
        self._sem = threading.Semaphore(value)

    def acquire(self, timeout: float | None = None) -> None:
        scaled = None if timeout is None else timeout * self._kernel.time_scale
        if not self._sem.acquire(timeout=scaled):
            raise WaitTimeout("semaphore acquire timed out")
        if self._kernel.sanitizer.enabled:
            self._kernel.sanitizer.hb_recv(self)

    def release(self) -> None:
        if self._kernel.sanitizer.enabled:
            self._kernel.sanitizer.hb_send(self)
        self._sem.release()

    def __enter__(self) -> "RealSemaphore":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class RealKernel(Kernel):
    def __init__(self, time_scale: float = 1.0, strict: bool = False) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        #: Multiplier applied to every sleep/timeout: 0.01 makes a
        #: "10 second" monitoring period take 100 ms of wall time.
        self.time_scale = time_scale
        self.strict = strict
        self.sanitizer = current_sanitizer()
        self._t0 = _time.monotonic()
        self._next_pid = 1
        self._shutting_down = False
        #: guards pid allocation and the shared bookkeeping tables below;
        #: spawn()/_register_thread()/_note_crash() run on arbitrary
        #: worker threads (call_soon spawns from inside processes).
        self._lock = self.sanitizer.make_lock("RealKernel._lock")
        self._by_thread: dict[int, RealProcess] = {}
        self.crashes: list[tuple[RealProcess, BaseException]] = []
        self.processes: list[RealProcess] = []
        from repro.kernel.virtual import _LIVE_KERNELS

        _LIVE_KERNELS.add(self)

    def now(self) -> float:
        return (_time.monotonic() - self._t0) / self.time_scale

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str | None = None,
        context: dict | None = None,
        delay: float = 0.0,
        completes: Future | None = None,  # every process has a thread
    ) -> RealProcess:
        if context is None:
            parent = self.current_process()
            context = parent.context if parent is not None else {}
        with self._lock:
            pid = self._next_pid
            self._next_pid += 1
        proc = RealProcess(
            self, pid, name or f"proc-{pid}", fn, tuple(args), context, delay
        )
        with self._lock:
            self.sanitizer.access("RealKernel", "processes", scope=self)
            self.processes.append(proc)
        if self.tracer.enabled:
            proc._span_ctx = _spans.current_context()
            self.tracer.emit(PROC_SPAWN, ts=self.now() + delay,
                             actor=proc.name, pid=pid)
            self.tracer.count("proc.spawned")
        if self.sanitizer.enabled:
            # spawn edge: the child's first action happens-after this point
            self.sanitizer.hb_send(proc)
        proc._thread.start()
        return proc

    def _register_thread(self, proc: RealProcess) -> None:
        with self._lock:
            self.sanitizer.access("RealKernel", "_by_thread", scope=self)
            self._by_thread[threading.get_ident()] = proc

    def sleep(self, duration: float) -> None:
        if duration < 0:
            raise ValueError("cannot sleep a negative duration")
        if self._shutting_down:
            from repro.kernel.virtual import _KernelShutdown

            raise _KernelShutdown()
        _time.sleep(duration * self.time_scale)
        if self._shutting_down:
            from repro.kernel.virtual import _KernelShutdown

            raise _KernelShutdown()

    def current_process(self) -> RealProcess | None:
        return self._by_thread.get(threading.get_ident())

    def _note_crash(self, proc: RealProcess, exc: BaseException) -> None:
        with self._lock:
            self.sanitizer.access("RealKernel", "crashes", scope=self)
            self.crashes.append((proc, exc))

    def create_future(self) -> RealFuture:
        fut = RealFuture(self)
        if self.sanitizer.enabled:
            self.sanitizer.track_future(fut, self)
        return fut

    def create_channel(self) -> RealChannel:
        return RealChannel(self)

    def create_semaphore(self, value: int = 1) -> RealSemaphore:
        return RealSemaphore(self, value)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        self.spawn(fn, *args, name="call_soon")

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        delay = max(0.0, time - self.now())
        self.spawn(fn, *args, name="call_at", delay=delay)

    def run(
        self,
        main: Process | None = None,
        until: float | None = None,
    ) -> None:
        if main is not None:
            main.join()
        elif until is not None:
            remaining = until - self.now()
            if remaining > 0:
                _time.sleep(remaining * self.time_scale)
        if self.strict:
            with self._lock:
                crashes = list(self.crashes)
            background = [(p, e) for p, e in crashes if p is not main]
            if background:
                proc, exc = background[0]
                raise KernelError(
                    f"process {proc.name} crashed: {exc!r}"
                ) from exc

    def shutdown(self) -> None:
        """Ask every looping process to exit at its next kernel sleep.
        Threads blocked indefinitely on futures are left alone (they are
        parked, not spinning).  Idempotent."""
        self._shutting_down = True
        deadline = _time.monotonic() + 2.0
        with self._lock:
            processes = list(self.processes)
        for proc in processes:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                break
            proc._thread.join(timeout=remaining)
        if self.sanitizer.enabled:
            self.sanitizer.check_leaks(self)
