"""Physical network topology and transfer-cost model.

The paper's testbed: all Ultras on a 100 Mbit/s switch, all other
workstations on 10 Mbit/s shared Ethernet, bridged into one LAN.  We model
the network as *segments* (switch/hub domains) joined by backbone links,
routed by fewest links (DESIGN.md, "Routes").  A transfer pays:

    software overhead + latency of the segments and links crossed
    + bytes / (min bandwidth along path × fair share)

Shared (hub) segments divide bandwidth among concurrent transfers — the
fair share is computed from the number of active transfers when this one
starts (a processor-sharing approximation that avoids re-scheduling every
in-flight transfer on each arrival).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import TransportError

#: Per-message software overhead in seconds (RMI dispatch, serialization
#: setup).  Java RMI on JDK 1.2 cost around a millisecond per call on a
#: LAN before any payload bytes moved.
DEFAULT_SW_OVERHEAD = 0.0012
#: Fraction of nominal bandwidth achievable in practice.
DEFAULT_EFFICIENCY = 0.7


@dataclass
class Segment:
    """One collision/switch domain."""

    name: str
    bandwidth_mbits: float
    latency_s: float = 0.0005
    #: shared=True models hub Ethernet: concurrent transfers split the
    #: medium.  Switched segments only share per-endpoint, which we fold
    #: into efficiency.
    shared: bool = False
    active_transfers: int = field(default=0, compare=False)

    @property
    def bytes_per_s(self) -> float:
        return self.bandwidth_mbits * 1e6 / 8.0


class Topology:
    """Hosts attached to segments; segments joined by backbone links."""

    def __init__(
        self,
        sw_overhead: float = DEFAULT_SW_OVERHEAD,
        efficiency: float = DEFAULT_EFFICIENCY,
        loopback_bytes_per_s: float = 200e6,
    ) -> None:
        self.sw_overhead = sw_overhead
        self.efficiency = efficiency
        self.loopback_bytes_per_s = loopback_bytes_per_s
        self._segments: dict[str, Segment] = {}
        self._host_segment: dict[str, str] = {}
        #: {segment: {neighbour: link latency}}, in connect order
        self._links: dict[str, dict[str, float]] = {}
        #: (segment, segment) -> (segments crossed, path latency)
        self._routes: dict[tuple[str, str],
                           tuple[tuple[Segment, ...], float]] = {}

    # -- construction --------------------------------------------------------

    def add_segment(self, segment: Segment) -> None:
        if segment.name in self._segments:
            raise TransportError(f"duplicate segment {segment.name!r}")
        self._segments[segment.name] = segment
        self._links[segment.name] = {}
        self._routes.clear()

    def connect_segments(
        self, a: str, b: str, latency_s: float = 0.0005
    ) -> None:
        for name in (a, b):
            if name not in self._segments:
                raise TransportError(f"unknown segment {name!r}")
        self._links[a][b] = self._links[b][a] = latency_s
        self._routes.clear()

    def attach_host(self, host: str, segment: str) -> None:
        if segment not in self._segments:
            raise TransportError(f"unknown segment {segment!r}")
        self._host_segment[host] = segment

    # -- queries -------------------------------------------------------------

    def segment_of(self, host: str) -> Segment:
        try:
            return self._segments[self._host_segment[host]]
        except KeyError:
            raise TransportError(f"host {host!r} not attached") from None

    def _route(self, a: str, b: str) -> tuple[tuple[Segment, ...], float]:
        """The segments a transfer from segment ``a`` to ``b`` crosses and
        their path latency; found breadth-first, neighbours in connect
        order, and kept until the graph changes."""
        route = self._routes.get((a, b))
        if route is not None:
            return route
        paths = {a: (a,)}
        queue = [a]
        for here in queue:  # grows as it goes: breadth-first
            for there in self._links[here]:
                if there not in paths:
                    paths[there] = paths[here] + (there,)
                    queue.append(there)
        if b not in paths:
            raise TransportError(f"no route between segments {a!r} and {b!r}")
        path = paths[b]
        segs = tuple(self._segments[name] for name in path)
        latency = sum(seg.latency_s for seg in segs)
        for here, there in zip(path, path[1:]):
            latency += self._links[here][there]
        route = self._routes[a, b] = (segs, latency)
        return route

    # -- cost model ----------------------------------------------------------

    def start_transfer(
        self, src: str, dst: str, nbytes: int
    ) -> tuple[float, tuple[Segment, ...]]:
        """Seconds to move ``nbytes`` from ``src`` to ``dst`` given current
        contention (same-host: loopback cost only), and the segments
        crossed, now marked active: pass them to :meth:`end_transfer`."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if src == dst:
            return self.sw_overhead + nbytes / self.loopback_bytes_per_s, ()
        segs, latency = self._route(self.segment_of(src).name,
                                    self.segment_of(dst).name)
        # Bottleneck bandwidth with fair sharing on hub segments; a path
        # crosses a segment once, so none counts this transfer yet.
        rate = float("inf")
        for seg in segs:
            share = 1.0
            if seg.shared:
                share = 1.0 / (1 + seg.active_transfers)
            rate = min(rate, seg.bytes_per_s * self.efficiency * share)
            seg.active_transfers += 1
        return self.sw_overhead + latency + nbytes / rate, segs

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """:meth:`start_transfer`'s delay, without starting the transfer."""
        delay, segs = self.start_transfer(src, dst, nbytes)
        self.end_transfer(segs)
        return delay

    def begin_transfer(self, src: str, dst: str) -> tuple[Segment, ...]:
        """:meth:`start_transfer`'s segments, marked active."""
        return self.start_transfer(src, dst, 0)[1]

    def end_transfer(self, segs: Iterable[Segment]) -> None:
        for seg in segs:
            if seg.active_transfers <= 0:
                raise TransportError(
                    f"end_transfer without begin on segment {seg.name!r}"
                )
            seg.active_transfers -= 1
