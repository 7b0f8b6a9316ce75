"""The simulated world: kernel + machines + network in one handle.

``SimWorld`` is the substrate everything above (transport, agents, the
programming model) runs against.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import TransportError
from repro.kernel import RngStreams, VirtualKernel
from repro.obs import events as ev
from repro.obs.tracer import current_tracer
from repro.simnet.host import HostSpec
from repro.simnet.load import ConstantLoad, LoadModel
from repro.simnet.machine import Machine
from repro.simnet.topology import Segment, Topology


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

    def compute(self, host: str, flops: float) -> float:
        """Execute ``flops`` of work on ``host``; blocks the calling process
        for the modelled duration and returns it.

        Effective speed (background load and JS-task sharing) is
        re-sampled every :attr:`compute_resample` seconds, so a task that
        starts during a load spike speeds back up when the spike passes —
        a time-shared CPU, not a locked-in rate.
        """
        if flops < 0:
            raise ValueError("negative flops")
        machine = self.machine(host)
        machine.begin_task()
        t0 = self.now()
        try:
            remaining = float(flops)
            while remaining > 0:
                machine.check_alive()
                rate = machine.effective_flops(
                    self.now(), machine.active_tasks
                )
                slice_time = remaining / rate
                if slice_time <= self.compute_resample:
                    self.kernel.sleep(slice_time)
                    break
                self.kernel.sleep(self.compute_resample)
                remaining -= rate * self.compute_resample
        finally:
            machine.end_task()
        elapsed = self.now() - t0
        if self.tracer.enabled:
            self.tracer.emit_span(ev.COMPUTE, ts=t0, host=host,
                                  actor=self.kernel.current_process_name(),
                                  dur=elapsed, flops=flops)
            self.tracer.count(f"compute.flops:{host}", flops, host=host)
        return elapsed

    # -- network -------------------------------------------------------------

    def transfer_delay(self, src: str, dst: str, nbytes: int) -> float:
        """Compute the delay for a message and account for contention.

        The crossed segments' active-transfer counters are incremented now
        and decremented when the transfer completes (scheduled on the
        kernel), so overlapping transfers on shared segments slow each
        other down.
        """
        src_m = self.machine(src)
        src_m.check_alive()
        dst_m = self.machine(dst)
        dst_m.check_alive()
        delay, segs = self.topology.start_transfer(src, dst, nbytes)
        if segs:
            self.kernel.call_at(
                self.now() + delay, self.topology.end_transfer, segs
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
