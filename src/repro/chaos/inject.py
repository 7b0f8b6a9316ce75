"""The chaos injector: executes a :class:`FaultPlan` against a world.

The injector hooks the transport's wire (``transport.chaos``): the
transport calls :meth:`ChaosInjector.filter` once per scheduled delivery
(request and reply legs separately) and the injector answers with the
list of delivery times — empty to drop, more than one to duplicate,
shifted to delay/reorder.  Because the transport computes its FIFO
ordering floor *before* asking, per-message shifts produce genuine
reordering, exactly the anomaly an in-order connection hides.

Host-level faults (stalls, partitions, crash-restarts) are scheduled on
the kernel at install time.

Determinism: every probabilistic decision draws from the kernel RNG
stream ``"chaos"``, and kernel event scheduling is deterministic, so one
(plan, world-seed) pair replays bit-identically — the property the
seeded-replay tests pin.
"""

from __future__ import annotations

from repro.chaos.plan import FaultPlan
from repro.obs import events as ev
from repro.simnet.world import SimWorld

#: minimum offset for a duplicated delivery, so the copy never lands at
#: the exact instant of the original
_DUP_EPSILON = 1e-6


class ChaosInjector:
    def __init__(self, world: SimWorld, plan: FaultPlan) -> None:
        self.world = world
        self.plan = plan
        self.rng = world.rng.stream("chaos")
        self.tracer = world.tracer
        #: injected-fault tally by fault name (drop, duplicate, ...)
        self.injected: dict[str, int] = {}
        #: per-message-fault injection counts (enforces ``max_count``)
        self._budget_used: list[int] = [0] * len(plan.message_faults)
        self.installed = False

    # -- installation ---------------------------------------------------------

    def install(self, transport) -> "ChaosInjector":
        """Hook the transport and schedule the host-level faults."""
        if self.installed:
            return self
        self.installed = True
        transport.chaos = self
        kernel = self.world.kernel
        for stall in self.plan.stalls:
            kernel.call_at(stall.at, self._do_stall, stall)
        for crash in self.plan.crashes:
            kernel.call_at(crash.at, self._do_crash, crash)
            if crash.restart_at is not None:
                kernel.call_at(crash.restart_at, self._do_restart, crash)
        for part in self.plan.partitions:
            kernel.call_at(part.at, self._do_partition, part)
        return self

    # -- host-level faults ----------------------------------------------------

    def _do_stall(self, stall) -> None:
        self.world.stall_host(stall.host, stall.duration)
        self._note("stall", host=stall.host, duration=stall.duration)

    def _do_partition(self, part) -> None:
        # Only a note: filter() drops what crosses the cut while it lasts.
        self._note("partition", segment=part.segment, heal=part.healed_at)

    def _do_crash(self, crash) -> None:
        self.world.fail_host(crash.host)
        self._note("crash", host=crash.host)

    def _do_restart(self, crash) -> None:
        self.world.restart_host(crash.host)
        self._note("restart", host=crash.host)

    # -- the wire hook ---------------------------------------------------------

    def filter(self, msg, stage: str, deliver_at: float) -> list[float]:
        """Delivery times for ``msg``'s ``stage`` leg (nominally
        ``[deliver_at]``): ``[]`` drops it, extra entries duplicate it,
        shifted entries delay/reorder it."""
        now = self.world.now()
        for part in self.plan.partitions:
            if part.active(now) and self._crosses(msg, part.segment):
                self._inject("partition", msg, stage)
                return []
        times = [deliver_at]
        for index, fault in enumerate(self.plan.message_faults):
            if not fault.matches(msg, stage, now):
                continue
            if (
                fault.max_count is not None
                and self._budget_used[index] >= fault.max_count
            ):
                continue
            if float(self.rng.random()) >= fault.probability:
                continue
            self._budget_used[index] += 1
            self._inject(fault.kind, msg, stage)
            if fault.kind == "drop":
                return []
            if fault.kind == "duplicate":
                times.append(
                    times[0] + _DUP_EPSILON
                    + fault.delay * float(self.rng.random())
                )
            elif fault.kind == "delay":
                shift = fault.delay * (0.5 + float(self.rng.random()))
                times = [t + shift for t in times]
            elif fault.kind == "reorder":
                shift = fault.delay * float(self.rng.random())
                times = [t + shift for t in times]
        return times

    def _crosses(self, msg, segment: str) -> bool:
        """Does the message cross the partitioned segment's boundary?"""
        topo = self.world.topology
        try:
            src_seg = topo.segment_of(msg.src.host).name
            dst_seg = topo.segment_of(msg.dst.host).name
        except Exception:  # unknown host: not ours to partition
            return False
        return (src_seg == segment) != (dst_seg == segment)

    # -- accounting ------------------------------------------------------------

    def _inject(self, fault: str, msg, stage: str) -> None:
        self.injected[fault] = self.injected.get(fault, 0) + 1
        self.tracer.emit(
            ev.CHAOS_INJECT, ts=self.world.now(), host=msg.dst.host,
            ctx=msg.ctx, fault=fault, stage=stage, kind=msg.kind,
            src=str(msg.src), dst=str(msg.dst),
        )
        self.tracer.count(f"chaos.{fault}", host=msg.dst.host)

    def _note(self, fault: str, **fields) -> None:
        """Host/segment-level fault firing (no message context)."""
        self.injected[fault] = self.injected.get(fault, 0) + 1
        host = str(fields.pop("host", ""))
        self.tracer.emit(
            ev.CHAOS_INJECT, ts=self.world.now(),
            host=host, fault=fault, **fields,
        )
        self.tracer.count(f"chaos.{fault}", host=host)
