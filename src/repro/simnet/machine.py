"""Per-host runtime state: the ground truth the monitoring system samples.

A :class:`Machine` combines a static :class:`HostSpec` with a background
:class:`LoadModel` and the dynamic state imposed by PySymphony itself
(active computations, object memory, loaded codebases).  The effective
compute rate available to one PySymphony task is::

    spec.flops × (1 − background_load) ÷ concurrent_js_tasks

which is what a nice-priority JVM thread would get on a time-shared
Solaris box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import NodeFailedError
from repro.simnet.host import HostSpec
from repro.simnet.load import ConstantLoad, LoadModel

#: A machine under 100% external load still makes *some* progress.
MIN_CPU_SHARE = 0.03

#: CPU share during a gray-failure stall: the machine is "up" (not
#: failed) but barely responsive — a swap storm, a GC pause, a wedged
#: NIC driver.  Progress is ~nil but nonzero, so stalled computations
#: resume instead of restarting once the stall heals.
STALL_CPU_SHARE = 0.001


@dataclass
class MachineCounters:
    """Cumulative activity counters (feed the synthetic dynamic params)."""

    invocations_served: int = 0
    objects_created: int = 0
    objects_hosted: int = 0
    migrations_in: int = 0
    migrations_out: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0


@dataclass
class Machine:
    spec: HostSpec
    load_model: LoadModel = field(default_factory=ConstantLoad)
    failed: bool = False
    #: number of PySymphony computations currently executing here
    active_tasks: int = 0
    #: MB held by PySymphony objects resident on this host, as of the
    #: last settle: read and write it as :attr:`js_mem_mb`
    _js_mem: float = field(default=0.0, init=False, repr=False)
    #: one settle callable per object whose footprint a call may have
    #: changed since it was last measured, in the order first marked
    _unsettled: list[Callable[[], float]] = field(
        default_factory=list, init=False, repr=False)
    #: MB held by codebases loaded to this host
    codebase_mem_mb: float = 0.0
    #: gray failure: until this sim time the host is up but ~unresponsive
    stalled_until: float = 0.0
    #: restart epoch: how many times :meth:`restart` has run.  A task
    #: belongs to the epoch it began in.
    epoch: int = 0
    counters: MachineCounters = field(default_factory=MachineCounters)

    @property
    def name(self) -> str:
        return self.spec.name

    # -- CPU -----------------------------------------------------------------

    def background_load(self, t: float) -> float:
        return self.load_model.load_at(t)

    def cpu_share(self, t: float) -> float:
        """Fraction of the CPU available to PySymphony work at ``t``."""
        if t < self.stalled_until:
            return STALL_CPU_SHARE
        return max(MIN_CPU_SHARE, 1.0 - self.background_load(t))

    def stall(self, until: float) -> None:
        """Gray-fail the host until sim time ``until`` (still "alive")."""
        self.stalled_until = max(self.stalled_until, until)

    def effective_flops(self, t: float, concurrency: int | None = None) -> float:
        """FLOP/s one task gets, given ``concurrency`` JS tasks sharing."""
        if concurrency is None:
            concurrency = max(1, self.active_tasks)
        return self.spec.flops * self.cpu_share(t) / max(1, concurrency)

    def compute_time(
        self, flops: float, t: float, concurrency: int | None = None
    ) -> float:
        """Seconds to execute ``flops`` starting at ``t``."""
        if flops < 0:
            raise ValueError("negative flops")
        if flops == 0:
            return 0.0
        self.check_alive()
        return flops / self.effective_flops(t, concurrency)

    def begin_task(self) -> int:
        """Count one more task running here; returns its epoch, for
        :meth:`end_task`."""
        self.check_alive()
        self.active_tasks += 1
        return self.epoch

    def end_task(self, epoch: int | None = None) -> None:
        """Count a task as done.  A task begun before the latest restart
        (``epoch`` older than the machine's) was forgotten by it, so its
        end counts nothing: it must not take a newer task's slot."""
        if epoch is not None and epoch != self.epoch:
            return
        if self.active_tasks <= 0:
            raise RuntimeError(f"{self.name}: end_task without begin_task")
        self.active_tasks -= 1

    # -- memory --------------------------------------------------------------

    @property
    def js_mem_mb(self) -> float:
        """MB held by PySymphony objects resident on this host.

        A call does not measure its object (that is a pickle of the
        whole instance); it marks the footprint stale
        (:meth:`mark_mem_stale`).  Reading this first settles every
        stale footprint, so a reader sees what measuring after every
        call would have given: exactly, unless a host's footprints
        change several times between two reads, where the sums may
        round differently (DESIGN.md "Wire codec")."""
        if self._unsettled:
            self._settle_mem()
        return self._js_mem

    @js_mem_mb.setter
    def js_mem_mb(self, value: float) -> None:
        self._js_mem = value

    def mark_mem_stale(self, settle: Callable[[], float]) -> None:
        """Queue an object's ``settle``: re-measure its footprint and
        return the change in MB, at the next read of :attr:`js_mem_mb`.
        The caller queues each stale object once."""
        self._unsettled.append(settle)

    def _settle_mem(self) -> None:
        unsettled, self._unsettled = self._unsettled, []
        for settle in unsettled:
            self._js_mem += settle()

    def background_mem_mb(self, t: float) -> float:
        """MB consumed by external users + OS at ``t``."""
        base_os = 0.18 * self.spec.total_mem_mb
        external = self.load_model.mem_pressure_at(t) * (
            0.6 * self.spec.total_mem_mb
        )
        return base_os + external

    def avail_mem_mb(self, t: float) -> float:
        used = self.background_mem_mb(t) + self.js_mem_mb + self.codebase_mem_mb
        return max(0.0, self.spec.total_mem_mb - used)

    def swap_ratio(self, t: float) -> float:
        """Used/available swap; grows once physical memory is tight."""
        pressure = 1.0 - self.avail_mem_mb(t) / self.spec.total_mem_mb
        return max(0.0, min(1.0, 1.6 * (pressure - 0.5)))

    # -- failure -------------------------------------------------------------

    def check_alive(self) -> None:
        if self.failed:
            raise NodeFailedError(f"host {self.name} has failed")

    def fail(self) -> None:
        self.failed = True

    def restore(self) -> None:
        self.failed = False

    def restart(self) -> None:
        """Bring a crashed machine back as a blank slate.

        Unlike :meth:`restore` (which pretends the failure never
        happened), a restart loses all runtime state: resident objects,
        loaded codebases, and in-flight tasks are gone.  The agents
        layer reacts through ``world.restart_listeners`` (fresh holder
        tables, NAS re-registration)."""
        self.failed = False
        self.epoch += 1
        self.active_tasks = 0
        self._unsettled = []
        self.js_mem_mb = 0.0
        self.codebase_mem_mb = 0.0
        self.stalled_until = 0.0
