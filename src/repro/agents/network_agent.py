"""Network agents: per-node monitoring, aggregation, failure probing.

Every node runs exactly one network agent (NA).  Each NA:

* samples its own machine every ``monitor_period`` and reports the sample
  to its cluster manager's NA (over the network, like the real system);
* if it *is* a cluster manager: averages member samples and forwards the
  cluster aggregate to the site manager; site managers forward site
  aggregates to the domain manager (paper Section 5.1);
* probes: cluster managers ping their members, members ping their
  manager.  A peer that stays silent past ``failure_timeout`` triggers
  the paper's fault-tolerance protocol (release / backup takeover),
  executed by :class:`repro.agents.nas.NetworkAgentSystem`.

Under a recording tracer each monitor tick also tells the NAS-owned
:class:`~repro.obs.slo.SLOWatcher` to close this host's metrics window;
the window and its state are the watcher's, so they outlive the agent
across a crash-restart.  The window never goes on the wire: heartbeats
carry the sample only, so a traced run sends the same bytes, at the
same simulated times, as an untraced one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.agents import messages as M
from repro.errors import NodeFailedError, RPCTimeoutError, TransportError
from repro.obs import events as ev
from repro.sysmon import SampleHistory, WeightedSnapshot, average_snapshots
from repro.sysmon.sampler import sample_all
from repro.transport import Addr
from repro.util.serialization import Payload

if TYPE_CHECKING:  # pragma: no cover
    from repro.agents.nas import NetworkAgentSystem

#: serialized size of one ~47-parameter sample report on the wire
SAMPLE_WIRE_BYTES = 1200


class NetworkAgent:
    def __init__(self, nas: "NetworkAgentSystem", host: str) -> None:
        self.nas = nas
        self.host = host
        self.world = nas.world
        self.addr = Addr(host, "na")
        self.endpoint = nas.transport.create_endpoint(self.addr)
        self.history = SampleHistory()
        #: cluster members' latest samples (only used while manager)
        self.member_samples: dict[str, WeightedSnapshot] = {}
        #: child aggregates while site/domain manager: name -> weighted
        self.cluster_aggregates: dict[str, WeightedSnapshot] = {}
        self.site_aggregates: dict[str, WeightedSnapshot] = {}
        self._register_handlers()
        self._procs = []

    # -- handlers -------------------------------------------------------------

    def _register_handlers(self) -> None:
        ep = self.endpoint
        ep.register(M.PING, lambda msg: "pong")
        ep.register(M.REPORT_PARAMS, self._on_report_params)
        ep.register(M.REPORT_AGGREGATE, self._on_report_aggregate)

    def _on_report_params(self, msg) -> None:
        host, snapshot = msg.payload.data
        self.member_samples[host] = WeightedSnapshot(snapshot, weight=1)

    def _on_report_aggregate(self, msg) -> None:
        level, name, weighted = msg.payload.data
        if level == "cluster":
            self.cluster_aggregates[name] = weighted
        elif level == "site":
            self.site_aggregates[name] = weighted
        else:  # pragma: no cover - defensive
            raise TransportError(f"bad aggregate level {level!r}")

    # -- loops ------------------------------------------------------------------

    def start(self) -> None:
        kernel = self.world.kernel
        self._procs = [
            kernel.spawn(self._monitor_loop, name=f"na-mon@{self.host}"),
            kernel.spawn(self._probe_loop, name=f"na-probe@{self.host}"),
        ]

    def _alive(self) -> bool:
        return (
            not self.world.machine(self.host).failed
            and self.host in self.nas.known_hosts()
        )

    def _monitor_loop(self) -> None:
        kernel = self.world.kernel
        config = self.nas.config
        # Desynchronize the fleet a little, deterministically.
        kernel.sleep(
            float(self.world.rng.stream(f"na:{self.host}").uniform(
                0, config.monitor_period * 0.5
            ))
        )
        while self._alive():
            try:
                self._monitor_once()
            except NodeFailedError:
                break  # this host died mid-sample
            kernel.sleep(config.monitor_period)

    def _monitor_once(self) -> None:
        from repro.sysmon import SysParam

        t0 = self.world.now()
        machine = self.world.machine(self.host)
        snapshot = sample_all(machine, t0, self.world.topology)
        self.history.record(self.world.now(), snapshot)
        tracer = self.world.tracer
        span = None
        if tracer.enabled:
            # Each monitoring tick (sample + manager exchange) is a span
            # rooting its own small trace; idle/memory ride along so the
            # js-top reconstruction can read them straight off the event.
            span = tracer.begin_span(
                ev.NAS_SAMPLE, ts=t0, host=self.host,
                actor=f"na@{self.host}", parent=None,
                idle=round(float(snapshot.get(SysParam.IDLE, 0.0)), 2),
                avail_mem_mb=round(
                    float(snapshot.get(SysParam.AVAIL_MEM, 0.0)), 1),
                js_mem_mb=round(
                    machine.js_mem_mb + machine.codebase_mem_mb, 3),
            )
            tracer.count("nas.samples", host=self.host)
        try:
            manager = self.nas.cluster_manager_of(self.host)
            if manager is None:
                return
            if tracer.enabled:
                self.nas.slo.tick(self.host, self.world.now(), tracer)
            if manager == self.host:
                self.member_samples[self.host] = WeightedSnapshot(snapshot, 1)
                self._aggregate_and_forward()
            else:
                self.endpoint.send_oneway(
                    Addr(manager, "na"),
                    M.REPORT_PARAMS,
                    Payload(data=(self.host, snapshot),
                            nbytes=SAMPLE_WIRE_BYTES),
                )
        finally:
            if span is not None:
                tracer.end_span(span, ts=self.world.now())

    def _aggregate_and_forward(self) -> None:
        """Run the manager side of the aggregation cascade."""
        nas = self.nas
        my_cluster = nas.cluster_of(self.host)
        if my_cluster is None or nas.cluster_manager_of(self.host) != self.host:
            return
        members = set(nas.cluster_members(my_cluster))
        self.member_samples = {
            h: s for h, s in self.member_samples.items() if h in members
        }
        if not self.member_samples:
            return
        cluster_avg = average_snapshots(self.member_samples.values())
        self.cluster_aggregates[my_cluster] = cluster_avg
        my_site = nas.site_of_cluster(my_cluster)
        site_mgr = nas.site_manager(my_site)
        if site_mgr != self.host:
            self.endpoint.send_oneway(
                Addr(site_mgr, "na"),
                M.REPORT_AGGREGATE,
                Payload(data=("cluster", my_cluster, cluster_avg),
                        nbytes=SAMPLE_WIRE_BYTES),
            )
            return
        # I am the site manager: average my clusters' aggregates.
        site_clusters = set(nas.clusters_of_site(my_site))
        relevant = [
            agg for name, agg in self.cluster_aggregates.items()
            if name in site_clusters
        ]
        if not relevant:
            return
        site_avg = average_snapshots(relevant)
        self.site_aggregates[my_site] = site_avg
        domain_mgr = nas.domain_manager()
        if domain_mgr != self.host:
            self.endpoint.send_oneway(
                Addr(domain_mgr, "na"),
                M.REPORT_AGGREGATE,
                Payload(data=("site", my_site, site_avg),
                        nbytes=SAMPLE_WIRE_BYTES),
            )

    def _probe_loop(self) -> None:
        kernel = self.world.kernel
        config = self.nas.config
        kernel.sleep(
            float(self.world.rng.stream(f"probe:{self.host}").uniform(
                config.probe_period * 0.5, config.probe_period
            ))
        )
        while self._alive():
            try:
                self._probe_once()
            except NodeFailedError:
                break
            kernel.sleep(config.probe_period)

    def _probe_once(self) -> None:
        nas = self.nas
        cluster = nas.cluster_of(self.host)
        if cluster is None:
            return
        manager = nas.cluster_manager(cluster)
        if manager == self.host:
            # I manage: probe every member.
            for member in list(nas.cluster_members(cluster)):
                if member == self.host:
                    continue
                if not self._peer_responds(member):
                    nas.handle_member_failure(cluster, member,
                                              detected_by=self.host)
        else:
            # Member: probe my manager.
            if not self._peer_responds(manager):
                nas.handle_manager_failure(cluster, manager,
                                           detected_by=self.host)

    def _peer_responds(self, peer: str) -> bool:
        try:
            self.endpoint.rpc(
                Addr(peer, "na"), M.PING,
                timeout=self.nas.config.failure_timeout,
            )
            ok = True
        except (RPCTimeoutError, NodeFailedError, TransportError):
            ok = False
        tracer = self.world.tracer
        if tracer.enabled:
            tracer.emit(ev.NAS_PROBE, ts=self.world.now(), host=self.host,
                        actor=f"na@{self.host}", peer=peer, ok=ok)
            tracer.count("nas.probes.ok" if ok else "nas.probes.failed",
                         host=self.host)
        return ok

    # -- query API ----------------------------------------------------------------

    def latest_snapshot(self):
        sample = self.history.latest
        return sample.params if sample else None
