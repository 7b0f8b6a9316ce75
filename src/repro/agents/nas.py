"""The Network Agent System: layout, manager bookkeeping, fault tolerance.

Physical layout — which hosts form which physical cluster and site — is
configured by the JS-Shell ("The nodes on which JRS is installed are
configured by using the JS-Shell").  The NAS owns that layout, assigns
managers (first host of a cluster manages it; the first cluster's manager
manages the site; the first site's manager manages the domain) and
executes the paper's simplified fault-tolerance protocol:

* a failed non-manager node is simply released by its cluster manager;
* a failed manager is released by its (predefined) backup, which takes
  over and notifies the shell, its lower/higher managers and the nodes of
  its component; a further backup is then activated.

The OAS is *not* informed (paper: "currently the object agent system does
not exploit information about system failures"); an optional callback
hook exists for the extension experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.agents.network_agent import NetworkAgent
from repro.errors import ShellError
from repro.obs import events as ev
from repro.obs.slo import DEFAULT_RULES, SLOWatcher
from repro.sanitizer.core import note_write
from repro.sysmon import Snapshot
from repro.sysmon.sampler import sample_all
from repro.transport import Transport
from repro.varch.managers import ManagerAssignment, assign_cluster_managers


#: predefined (ordered) backups per cluster manager
N_BACKUPS = 2


@dataclass
class NASConfig:
    monitor_period: float = 5.0
    probe_period: float = 5.0
    failure_timeout: float = 2.0


@dataclass
class NASEvent:
    time: float
    kind: str  # "node-released" | "manager-takeover"
    detail: dict = field(default_factory=dict)


class NetworkAgentSystem:
    def __init__(
        self,
        world,
        transport: Transport,
        layout: dict[str, dict[str, list[str]]],
        config: NASConfig | None = None,
    ) -> None:
        """``layout``: ``{site: {cluster: [hosts]}}`` — the physical
        hierarchy, one domain."""
        self.world = world
        self.transport = transport
        self.config = config or NASConfig()
        self.layout = {
            site: {cl: list(hosts) for cl, hosts in clusters.items()}
            for site, clusters in layout.items()
        }
        self._validate_layout()
        self.managers: dict[str, ManagerAssignment] = {
            cluster: assign_cluster_managers(hosts, N_BACKUPS)
            for site in self.layout.values()
            for cluster, hosts in site.items()
        }
        self.agents: dict[str, NetworkAgent] = {}
        self.events: list[NASEvent] = []
        # Every agent has this watcher close its host's metrics window at
        # its own monitor tick, under a recording tracer only; the
        # windows are the watcher's, so they outlive a restarted agent.
        self.slo = SLOWatcher(DEFAULT_RULES)
        #: extension hook (off-path per paper): called on every failure
        self.failure_listeners: list[Callable[[str], None]] = []
        self._started = False

    def _validate_layout(self) -> None:
        seen: set[str] = set()
        for site, clusters in self.layout.items():
            if not clusters:
                raise ShellError(f"site {site!r} has no clusters")
            for cluster, hosts in clusters.items():
                if not hosts:
                    raise ShellError(f"cluster {cluster!r} has no hosts")
                for host in hosts:
                    if host in seen:
                        raise ShellError(f"host {host!r} appears twice")
                    if host not in self.world.machines:
                        raise ShellError(f"unknown host {host!r}")
                    seen.add(host)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for host in self.known_hosts():
            self._spawn_agent(host)

    def _spawn_agent(self, host: str) -> None:
        agent = NetworkAgent(self, host)
        note_write(self.world.kernel, "NAS", f"agents[{host}]")
        self.agents[host] = agent
        if self._started:
            agent.start()

    # -- layout queries ----------------------------------------------------------

    def known_hosts(self) -> list[str]:
        return [
            h
            for clusters in self.layout.values()
            for hosts in clusters.values()
            for h in hosts
        ]

    def cluster_of(self, host: str) -> str | None:
        for clusters in self.layout.values():
            for cluster, hosts in clusters.items():
                if host in hosts:
                    return cluster
        return None

    def site_of_cluster(self, cluster: str) -> str:
        for site, clusters in self.layout.items():
            if cluster in clusters:
                return site
        raise ShellError(f"unknown cluster {cluster!r}")

    def site_of(self, host: str) -> str | None:
        cluster = self.cluster_of(host)
        return self.site_of_cluster(cluster) if cluster else None

    def cluster_members(self, cluster: str) -> list[str]:
        for clusters in self.layout.values():
            if cluster in clusters:
                return clusters[cluster]
        raise ShellError(f"unknown cluster {cluster!r}")

    def clusters_of_site(self, site: str) -> list[str]:
        try:
            return list(self.layout[site])
        except KeyError:
            raise ShellError(f"unknown site {site!r}") from None

    # -- manager queries (nesting rule by construction) ------------------------

    def cluster_manager(self, cluster: str) -> str:
        return self.managers[cluster].manager

    def cluster_manager_of(self, host: str) -> str | None:
        cluster = self.cluster_of(host)
        return self.cluster_manager(cluster) if cluster else None

    def site_manager(self, site: str) -> str:
        first_cluster = self.clusters_of_site(site)[0]
        return self.cluster_manager(first_cluster)

    def domain_manager(self) -> str:
        first_site = next(iter(self.layout))
        return self.site_manager(first_site)

    def is_manager(self, host: str) -> bool:
        return any(a.manager == host for a in self.managers.values())

    def is_backup(self, host: str) -> bool:
        return any(host in a.backups for a in self.managers.values())

    # -- monitored-data queries ---------------------------------------------------

    def latest_snapshot(self, host: str) -> Snapshot:
        """Most recent monitored sample for ``host`` (fresh sample before
        the first monitoring tick)."""
        agent = self.agents.get(host)
        if agent is not None:
            snap = agent.latest_snapshot()
            if snap is not None:
                return snap
        return sample_all(
            self.world.machine(host), self.world.now(), self.world.topology
        )

    def cluster_average(self, cluster: str) -> Snapshot | None:
        manager = self.cluster_manager(cluster)
        agent = self.agents.get(manager)
        if agent is None:
            return None
        agg = agent.cluster_aggregates.get(cluster)
        return agg.params if agg else None

    def site_average(self, site: str) -> Snapshot | None:
        manager = self.site_manager(site)
        agent = self.agents.get(manager)
        if agent is None:
            return None
        agg = agent.site_aggregates.get(site)
        return agg.params if agg else None

    def domain_average(self) -> Snapshot | None:
        from repro.sysmon import average_snapshots

        manager = self.domain_manager()
        agent = self.agents.get(manager)
        if agent is None:
            return None
        aggregates = dict(agent.site_aggregates)
        # The domain manager's own site average lives locally too.
        for site in self.layout:
            if self.site_manager(site) == manager:
                own = agent.site_aggregates.get(site)
                if own:
                    aggregates[site] = own
        if not aggregates:
            return None
        return average_snapshots(aggregates.values()).params

    def history_document(self) -> dict:
        """A JSON-safe view of NAS state for incident bundles: layout,
        manager assignments, the fault-tolerance event log, and each
        live agent's latest monitored sample."""
        samples = {}
        for host, agent in sorted(self.agents.items()):
            snap = agent.latest_snapshot()
            if snap is None:
                continue
            samples[host] = {
                getattr(param, "name", str(param)):
                    value if isinstance(value, (int, float, str, bool))
                    else repr(value)
                for param, value in snap.items()
            }
        return {
            "layout": {
                site: {cl: list(hosts) for cl, hosts in clusters.items()}
                for site, clusters in self.layout.items()
            },
            "managers": {
                cluster: {"manager": a.manager, "backups": list(a.backups)}
                for cluster, a in sorted(self.managers.items())
            },
            "events": [
                {"time": e.time, "kind": e.kind, "detail": dict(e.detail)}
                for e in self.events
            ],
            "samples": samples,
        }

    # -- shell-driven membership ----------------------------------------------------

    def add_node(self, host: str, cluster: str, site: str) -> None:
        if host not in self.world.machines:
            raise ShellError(f"unknown host {host!r}")
        if self.cluster_of(host) is not None:
            raise ShellError(f"host {host!r} already registered")
        note_write(self.world.kernel, "NAS", f"managers[{cluster}]")
        clusters = self.layout.setdefault(site, {})
        hosts = clusters.setdefault(cluster, [])
        hosts.append(host)
        if cluster not in self.managers:
            self.managers[cluster] = assign_cluster_managers(
                hosts, N_BACKUPS
            )
        elif len(self.managers[cluster].backups) < N_BACKUPS:
            self.managers[cluster].backups.append(host)
        if host not in self.agents:
            self._spawn_agent(host)

    def remove_node(self, host: str) -> None:
        cluster = self.cluster_of(host)
        if cluster is None:
            raise ShellError(f"host {host!r} is not registered")
        self._release(cluster, host, reason="shell-remove")

    # -- fault tolerance ----------------------------------------------------------

    def _release(self, cluster: str, host: str, reason: str) -> None:
        members = self.cluster_members(cluster)
        if host not in members:
            return  # already released by a concurrent detector
        kernel = self.world.kernel
        note_write(kernel, "NAS", f"managers[{cluster}]")
        note_write(kernel, "NAS", f"agents[{host}]")
        members.remove(host)
        assignment = self.managers[cluster]
        if assignment.manager == host or host in assignment.backups:
            self.managers[cluster] = assignment.without(host)
        agent = self.agents.pop(host, None)
        self.events.append(
            NASEvent(
                self.world.now(),
                "node-released",
                {"host": host, "cluster": cluster, "reason": reason},
            )
        )
        if not members:
            # Last node gone: drop the empty cluster.
            site = self.site_of_cluster(cluster)
            del self.layout[site][cluster]
            del self.managers[cluster]
        # Endpoint teardown and listener callbacks can message other
        # agents: they run once the membership tables are consistent.
        if agent is not None:
            agent.endpoint.close()
        tracer = self.world.tracer
        tracer.emit(
            ev.NAS_RELEASE, ts=self.world.now(), host=host, actor="nas",
            cluster=cluster, reason=reason,
        )
        tracer.count("nas.released", host=host)
        for listener in self.failure_listeners:
            listener(host)

    def handle_member_failure(
        self, cluster: str, member: str, detected_by: str
    ) -> None:
        """A cluster manager found a non-manager member silent."""
        if member not in self.cluster_members(cluster):
            return
        self._release(cluster, member, reason=f"probe by {detected_by}")

    def handle_manager_failure(
        self, cluster: str, manager: str, detected_by: str
    ) -> None:
        """A member found its manager silent.  Only the predefined first
        backup performs the takeover (paper: "a backup manager within the
        same hierarchy releases the manager and takes over")."""
        assignment = self.managers.get(cluster)
        if assignment is None or assignment.manager != manager:
            return  # someone already took over
        if not assignment.backups or assignment.backups[0] != detected_by:
            return  # not this node's job
        kernel = self.world.kernel
        note_write(kernel, "NAS", f"managers[{cluster}]")
        note_write(kernel, "NAS", f"agents[{manager}]")
        was_site_mgr = any(
            self.site_manager(site) == manager for site in self.layout
        )
        was_domain_mgr = self.domain_manager() == manager
        members = self.cluster_members(cluster)
        if manager in members:
            members.remove(manager)
        self.managers[cluster] = assignment.successor()
        new_manager = self.managers[cluster].manager
        agent = self.agents.pop(manager, None)
        self.events.append(
            NASEvent(
                self.world.now(),
                "manager-takeover",
                {
                    "cluster": cluster,
                    "failed": manager,
                    "new_manager": new_manager,
                    "was_site_manager": was_site_mgr,
                    "was_domain_manager": was_domain_mgr,
                },
            )
        )
        # Endpoint teardown and listener callbacks can message other
        # agents: they run once the membership tables are consistent.
        if agent is not None:
            agent.endpoint.close()
        tracer = self.world.tracer
        tracer.emit(
            ev.NAS_TAKEOVER, ts=self.world.now(), host=new_manager,
            actor="nas", cluster=cluster, failed=manager,
            new_manager=new_manager,
        )
        tracer.count("nas.takeovers", host=new_manager)
        for listener in self.failure_listeners:
            listener(manager)
