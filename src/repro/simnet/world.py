"""The simulated world: kernel + machines + network in one handle.

``SimWorld`` is the substrate everything above (transport, agents, the
programming model) runs against.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import NodeFailedError, TransportError
from repro.kernel import RngStreams, VirtualKernel
from repro.obs import events as ev
from repro.obs import spans as _spans
from repro.obs.tracer import current_tracer
from repro.simnet.host import HostSpec
from repro.simnet.load import ConstantLoad, LoadModel
from repro.simnet.machine import Machine
from repro.simnet.topology import Segment, Topology

#: the span context's thread-local, swapped inline around a continuation
_span_state = _spans._state


class SimWorld:
    def __init__(
        self,
        kernel: VirtualKernel | None = None,
        topology: Topology | None = None,
        seed: int = 0,
    ) -> None:
        self.kernel = kernel if kernel is not None else VirtualKernel()
        self.topology = topology if topology is not None else Topology()
        self.rng = RngStreams(seed)
        self.machines: dict[str, Machine] = {}
        #: the ambient tracer at construction time; everything built on
        #: this world (transport, agents) reads it from here.
        self.tracer = current_tracer()
        self.kernel.tracer = self.tracer
        #: called with the host name whenever :meth:`fail_host` fires, so
        #: components can shed per-host state (e.g. FIFO ordering floors).
        self.failure_listeners: list[Callable[[str], None]] = []
        #: called with the host name whenever :meth:`restart_host` fires,
        #: so the agents layer can rebuild fresh per-host state (holder
        #: tables, NAS registration, a new public object agent).
        self.restart_listeners: list[Callable[[str], None]] = []

    # -- construction --------------------------------------------------------

    def add_machine(
        self,
        spec: HostSpec,
        segment: str,
        load_model: LoadModel | None = None,
    ) -> Machine:
        if spec.name in self.machines:
            raise TransportError(f"duplicate machine {spec.name!r}")
        machine = Machine(
            spec=spec,
            load_model=load_model if load_model is not None else ConstantLoad(),
        )
        self.machines[spec.name] = machine
        self.topology.attach_host(spec.name, segment)
        return machine

    def add_segment(self, segment: Segment) -> None:
        self.topology.add_segment(segment)

    # -- queries -------------------------------------------------------------

    def machine(self, name: str) -> Machine:
        try:
            return self.machines[name]
        except KeyError:
            raise TransportError(f"unknown machine {name!r}") from None

    def host_names(self) -> list[str]:
        return sorted(self.machines)

    def now(self) -> float:
        return self.kernel.now()

    # -- compute charging ------------------------------------------------------

    #: long computations re-sample load/concurrency every this many seconds
    compute_resample = 5.0

    def _slice(self, machine: Machine, remaining: float) -> tuple[float, float]:
        """The CPU-slice rule, one stretch of a task with ``remaining``
        flops to go: its length, and the flops left after it.

        Effective speed (background load and JS-task sharing) is sampled
        at the stretch's start and holds for at most
        :attr:`compute_resample` seconds, so a task that starts during a
        load spike speeds back up when the spike passes — a time-shared
        CPU, not a locked-in rate.  A dead host raises
        :class:`~repro.errors.NodeFailedError`."""
        machine.check_alive()
        rate = machine.effective_flops(self.kernel.now(), machine.active_tasks)
        slice_time = remaining / rate
        if slice_time <= self.compute_resample:
            return slice_time, 0.0
        return (self.compute_resample,
                remaining - rate * self.compute_resample)

    def compute(self, host: str, flops: float) -> float:
        """Execute ``flops`` of work on ``host``; blocks the calling process
        for the modelled duration (:meth:`_slice` by slice) and returns
        it."""
        if flops < 0:
            raise ValueError("negative flops")
        machine = self.machine(host)
        epoch = machine.begin_task()
        kernel = self.kernel
        t0 = kernel.now()
        try:
            remaining = float(flops)
            while remaining > 0:
                stretch, remaining = self._slice(machine, remaining)
                kernel.sleep(stretch)
        finally:
            machine.end_task(epoch)
        if self.tracer.enabled:
            self._trace_compute(host, kernel.current_process_name(), t0, flops)
        return kernel.now() - t0

    def begin_compute(self, host: str, flops: float) -> tuple:
        """Begin ``flops`` of work on ``host`` without blocking: the
        calling code carries on while the CPU is busy.  Returns the task
        for :meth:`compute_then`, which says what happens when it ends.
        ``flops`` must be positive.  A dead host raises
        :class:`~repro.errors.NodeFailedError` here, with nothing begun.

        In two steps so that a caller can make what the continuation
        needs (a reply future, say) only once the host has taken the
        task.  Traced, the task records the calling process's name and
        span context now: its ``COMPUTE`` span, and whatever the
        continuation records, go under them."""
        if flops <= 0:
            raise ValueError("a task needs positive flops")
        machine = self.machine(host)
        epoch = machine.begin_task()
        stretch, remaining = self._slice(machine, float(flops))
        who = None
        if self.tracer.enabled:
            kernel = self.kernel
            who = (kernel.current_process_name(), _span_state.ctx,
                   kernel.now(), flops)
        return machine, epoch, stretch, remaining, who

    def compute_then(self, task: tuple, then: Callable[..., None],
                     *args: Any) -> None:
        """End ``task`` (:meth:`begin_compute`) in a call event:
        ``then(None, *args)`` once its last slice is over, or
        ``then(exc, *args)`` if a later slice finds the host dead
        (``exc`` the :class:`~repro.errors.NodeFailedError`).

        Each slice ends in one call event scheduled where
        :meth:`compute`'s wake from that slice would be, at the same
        time and place in the event order, and re-samples the rate as
        :meth:`compute`'s loop does: simulated time and event order are
        those of a blocking charge."""
        machine, epoch, stretch, remaining, who = task
        kernel = self.kernel
        kernel.call_at(kernel.now() + stretch, self._computed, machine,
                       epoch, remaining, who, then, args)

    def _computed(self, machine: Machine, epoch: int, remaining: float,
                  who: tuple | None, then: Callable[..., None],
                  args: tuple) -> None:
        """One slice of a :meth:`compute_then` task is over."""
        failure = None
        if remaining > 0:
            try:
                stretch, remaining = self._slice(machine, remaining)
            except NodeFailedError as exc:
                failure = exc
            else:
                kernel = self.kernel
                kernel.call_at(kernel.now() + stretch, self._computed,
                               machine, epoch, remaining, who, then, args)
                return
        machine.end_task(epoch)
        if who is None:
            return then(failure, *args)
        actor, ctx, t0, flops = who
        own, _span_state.ctx = _span_state.ctx, ctx
        try:
            if failure is None:
                self._trace_compute(machine.name, actor, t0, flops)
            then(failure, *args)
        finally:
            _span_state.ctx = own

    def _trace_compute(self, host: str, actor: str, t0: float,
                       flops: float) -> None:
        """Record a task that ran on ``host`` from ``t0`` until now."""
        tracer = self.tracer
        tracer.emit_span(ev.COMPUTE, ts=t0, host=host, actor=actor,
                         dur=self.kernel.now() - t0, flops=flops)
        tracer.count(f"compute.flops:{host}", flops, host=host)

    # -- network -------------------------------------------------------------

    def transfer_delay(self, src: str, dst: str, nbytes: int) -> float:
        """Compute the delay for a message and account for contention.

        The crossed shared segments' active-transfer counters are
        incremented now and decremented when the transfer completes
        (scheduled on the kernel), so overlapping transfers on shared
        segments slow each other down.  A route over switched segments
        only has nothing to release and schedules nothing.
        """
        src_m = self.machine(src)
        src_m.check_alive()
        dst_m = self.machine(dst)
        dst_m.check_alive()
        delay, shared = self.topology.start_transfer(src, dst, nbytes)
        if shared:
            kernel = self.kernel
            kernel.call_at(
                kernel.now() + delay, self.topology.end_transfer, shared
            )
        src_m.counters.bytes_sent += nbytes
        src_m.counters.messages_sent += 1
        dst_m.counters.bytes_received += nbytes
        dst_m.counters.messages_received += 1
        return delay

    # -- failures ------------------------------------------------------------

    def fail_host(self, name: str) -> None:
        self.machine(name).fail()
        # Force-close the dead machine's open spans (marked, not lost)
        # before listeners start reacting to the failure.
        self.tracer.host_failed(name, self.now())
        for listener in list(self.failure_listeners):
            listener(name)

    def restore_host(self, name: str) -> None:
        self.machine(name).restore()

    def restart_host(self, name: str) -> None:
        """Crash-*restart*: the machine comes back as a blank slate.

        All runtime state is lost (:meth:`Machine.restart`); the tracer
        drops the ``host_failed`` taint so post-restart spans read clean,
        and ``restart_listeners`` rebuild the agents-layer state."""
        self.machine(name).restart()
        self.tracer.host_restarted(name, self.now())
        for listener in list(self.restart_listeners):
            listener(name)

    def stall_host(self, name: str, duration: float) -> None:
        """Gray-fail ``name`` for ``duration`` sim seconds: still "up"
        (messages flow, NAS sees it) but making ~zero compute progress."""
        if duration < 0:
            raise ValueError("negative stall duration")
        self.machine(name).stall(self.now() + duration)

    def schedule_failure(self, name: str, at: float) -> None:
        self.kernel.call_at(at, self.fail_host, name)

    def alive_hosts(self) -> list[str]:
        return [n for n, m in sorted(self.machines.items()) if not m.failed]


def build_lan(
    world: SimWorld,
    fast_hosts: Iterable[HostSpec] = (),
    slow_hosts: Iterable[HostSpec] = (),
    fast_mbits: float = 100.0,
    slow_mbits: float = 10.0,
    load_models: dict[str, LoadModel] | None = None,
) -> SimWorld:
    """Wire the paper's two-segment LAN: a switched fast segment and a
    shared slow segment, bridged."""
    load_models = load_models or {}
    world.add_segment(
        Segment("switch-100", bandwidth_mbits=fast_mbits, shared=False)
    )
    world.add_segment(
        Segment("hub-10", bandwidth_mbits=slow_mbits, shared=True)
    )
    world.topology.connect_segments("switch-100", "hub-10", latency_s=0.0004)
    for spec in fast_hosts:
        world.add_machine(spec, "switch-100", load_models.get(spec.name))
    for spec in slow_hosts:
        world.add_machine(spec, "hub-10", load_models.get(spec.name))
    return world
