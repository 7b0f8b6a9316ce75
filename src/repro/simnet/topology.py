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
in-flight transfer on each arrival).  Only shared segments count their
transfers: a switched segment's share is always 1, so nothing reads its
count.
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
    #: transfers under way; counted on shared segments only
    active_transfers: int = field(default=0, compare=False)

    @property
    def bytes_per_s(self) -> float:
        return self.bandwidth_mbits * 1e6 / 8.0


#: the segments crossed, the path latency, the shared segments crossed
_Route = tuple[tuple[Segment, ...], float, tuple[Segment, ...]]


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
        #: (segment, segment) -> (segments crossed, path latency, the
        #: shared ones among them)
        self._routes: dict[tuple[str, str], _Route] = {}

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

    def _route(self, a: str, b: str) -> _Route:
        """The segments a transfer from segment ``a`` to ``b`` crosses,
        their path latency and the shared ones among them; found
        breadth-first, neighbours in connect order, and kept until the
        graph changes."""
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
        shared = tuple(seg for seg in segs if seg.shared)
        route = self._routes[a, b] = (segs, latency, shared)
        return route

    def _host_route(self, src: str, dst: str) -> _Route:
        return self._route(self.segment_of(src).name,
                           self.segment_of(dst).name)

    # -- cost model ----------------------------------------------------------

    def start_transfer(
        self, src: str, dst: str, nbytes: int
    ) -> tuple[float, tuple[Segment, ...]]:
        """Seconds to move ``nbytes`` from ``src`` to ``dst`` given current
        contention (same-host: loopback cost only), and the shared
        segments crossed, now counting this transfer: pass them to
        :meth:`end_transfer` (none: there is nothing to release)."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if src == dst:
            return self.sw_overhead + nbytes / self.loopback_bytes_per_s, ()
        segs, latency, shared = self._host_route(src, dst)
        # Bottleneck bandwidth with fair sharing on hub segments; a path
        # crosses a segment once, so none counts this transfer yet.
        rate = float("inf")
        for seg in segs:
            share = 1.0
            if seg.shared:
                share = 1.0 / (1 + seg.active_transfers)
            rate = min(rate, seg.bytes_per_s * self.efficiency * share)
        for seg in shared:
            seg.active_transfers += 1
        return self.sw_overhead + latency + nbytes / rate, shared

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """:meth:`start_transfer`'s delay, without starting the transfer."""
        delay, shared = self.start_transfer(src, dst, nbytes)
        self.end_transfer(shared)
        return delay

    def begin_transfer(self, src: str, dst: str) -> tuple[Segment, ...]:
        """Every segment a ``src -> dst`` transfer crosses, in order, the
        shared ones now counting it (as :meth:`start_transfer` does)."""
        self.start_transfer(src, dst, 0)
        return self._host_route(src, dst)[0] if src != dst else ()

    def end_transfer(self, segs: Iterable[Segment]) -> None:
        """Release a transfer on the shared ones of ``segs``."""
        for seg in segs:
            if not seg.shared:
                continue
            if seg.active_transfers <= 0:
                raise TransportError(
                    f"end_transfer without begin on segment {seg.name!r}"
                )
            seg.active_transfers -= 1
