"""Abstract execution-kernel interfaces.

Everything in PySymphony — network agents, object agents, and user
applications — is written in a *blocking* style against this interface,
exactly like JavaSymphony applications were written against JVM threads
and blocking Java/RMI.  Two implementations exist:

* :class:`repro.kernel.virtual.VirtualKernel` — cooperative thread-backed
  processes scheduled against an event heap in **virtual time**.  Fully
  deterministic under a seed; a 13-node simulated day of monitoring runs
  in host-milliseconds.
* :class:`repro.kernel.real.RealKernel` — preemptive OS threads and wall
  clock, demonstrating that the same agent code is genuinely concurrent.

The golden rule for code running on a kernel: *only block through kernel
primitives* (``sleep``, ``Future.wait``, ``Channel.get``, ...).  Blocking
through raw ``time.sleep``/``threading`` would stall the virtual scheduler.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Callable

from repro.obs.tracer import NULL_TRACER
from repro.sanitizer.core import NULL_SANITIZER


class ProcessState(enum.Enum):
    NEW = "new"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"
    FAILED = "failed"


class Process(abc.ABC):
    """A schedulable activity.  Comparable to one JVM thread in the paper."""

    kernel: "Kernel"
    pid: int
    name: str
    context: dict

    @property
    @abc.abstractmethod
    def state(self) -> ProcessState: ...

    @property
    def finished(self) -> bool:
        return self.state in (ProcessState.FINISHED, ProcessState.FAILED)

    @abc.abstractmethod
    def join(self, timeout: float | None = None) -> None:
        """Block the calling process until this process finishes."""

    @abc.abstractmethod
    def result(self) -> Any:
        """Return the process function's return value, re-raising any
        exception it died with.  Only valid after it finished."""


class Future(abc.ABC):
    """A single-assignment result slot — the substrate for async RMI
    handles, RPC replies and migration confirmations."""

    @abc.abstractmethod
    def done(self) -> bool: ...

    @abc.abstractmethod
    def set_result(self, value: Any) -> None: ...

    @abc.abstractmethod
    def set_exception(self, exc: BaseException) -> None: ...

    @abc.abstractmethod
    def wait(self, timeout: float | None = None) -> bool:
        """Block until done (returns True) or timeout (returns False)."""

    @abc.abstractmethod
    def result(self, timeout: float | None = None) -> Any:
        """Block until done and return the value / raise the exception.
        Raises :class:`repro.errors.WaitTimeout` on timeout."""

    @abc.abstractmethod
    def exception(self) -> BaseException | None:
        """The stored exception, or None.  Only valid once done."""


class Channel(abc.ABC):
    """Unbounded FIFO between processes (agent mailboxes)."""

    @abc.abstractmethod
    def put(self, item: Any) -> None: ...

    @abc.abstractmethod
    def get(self, timeout: float | None = None) -> Any:
        """Block for the next item; raises WaitTimeout on timeout."""

    @abc.abstractmethod
    def __len__(self) -> int: ...


class Semaphore(abc.ABC):
    @abc.abstractmethod
    def acquire(self, timeout: float | None = None) -> None: ...

    @abc.abstractmethod
    def release(self) -> None: ...


class Kernel(abc.ABC):
    """Factory + scheduler facade shared by both execution backends."""

    #: observability sink; worlds install the ambient tracer here so
    #: ``spawn`` can record process creation.  Null (and free) by default.
    tracer = NULL_TRACER

    #: concurrency sanitizer (symsan); kernels adopt the ambient sanitizer
    #: at construction time.  Null (and free) by default.
    sanitizer = NULL_SANITIZER

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall)."""

    @abc.abstractmethod
    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str | None = None,
        context: dict | None = None,
        delay: float = 0.0,
        completes: Future | None = None,
    ) -> Process:
        """Create a process running ``fn(*args)``.  ``context`` defaults to
        the spawning process's context (shared reference), which is how the
        "current application" travels to async-invocation worker threads.
        ``completes`` names a future only this process will complete; a
        kernel may use it to run the process on the thread of one waiting
        for that future, or ignore it."""

    @abc.abstractmethod
    def sleep(self, duration: float) -> None:
        """Block the calling process for ``duration`` seconds."""

    @abc.abstractmethod
    def create_future(self) -> Future: ...

    @abc.abstractmethod
    def create_channel(self) -> Channel: ...

    @abc.abstractmethod
    def create_semaphore(self, value: int = 1) -> Semaphore: ...

    @abc.abstractmethod
    def current_process(self) -> Process | None:
        """The process the calling code runs in, or None outside any."""

    @abc.abstractmethod
    def run(
        self,
        main: Process | None = None,
        until: float | None = None,
    ) -> None:
        """Drive execution.  With ``main``, return once it finished; with
        ``until``, stop at that time.  Virtual kernels execute events here;
        the real kernel simply waits (threads run on their own)."""

    def current_process_name(self) -> str:
        """Name of the calling process, or "" outside any process."""
        proc = self.current_process()
        return proc.name if proc is not None else ""

    # -- convenience -------------------------------------------------------

    def run_callable(
        self, fn: Callable[..., Any], *args: Any, name: str = "main"
    ) -> Any:
        """Spawn ``fn`` as a process, run the kernel until it finishes and
        return its result (raising its exception)."""
        proc = self.spawn(fn, *args, name=name)
        self.run(main=proc)
        return proc.result()
