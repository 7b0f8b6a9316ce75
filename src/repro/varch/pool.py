"""Resource pools: where virtual-architecture components get their nodes.

The pool answers "give me k hosts satisfying these constraints" using
*monitored* system parameters — the same data the Network Agent System
collects.  :class:`MonitoredPool` samples the simulated world directly
(used standalone and by the JRS, whose JS-Shell owns which hosts are
registered).

Allocation policy: when the requester gives no constraints the paper says
JRS picks "a node with low system load and reasonable resources
available".  The default ``available-compute`` policy ranks hosts by
``peak_mflops × idle%`` — idle fast machines first — which reduces to
lowest-load among equals and matches how an informed administrator would
hand out a heterogeneous pool.  ``min-load`` (pure lowest CPU load) and
``random`` (seeded) exist for ablations.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

from repro.constraints import JSConstraints
from repro.errors import AllocationError
from repro.simnet.world import SimWorld
from repro.sysmon import Snapshot, SysParam, sample_all


class ResourcePool(Protocol):
    def acquire(
        self,
        count: int = 1,
        constraints: JSConstraints | None = None,
        exclude: Iterable[str] = (),
        name: str | None = None,
    ) -> list[str]: ...

    def release(self, host: str) -> None: ...

    def snapshot(self, host: str) -> Snapshot: ...

    def alive_hosts(self) -> list[str]: ...


def _available_compute(snap: Snapshot) -> float:
    return snap[SysParam.PEAK_MFLOPS] * snap[SysParam.IDLE] / 100.0


class MonitoredPool:
    """Pool over a :class:`SimWorld`, sampling ground truth on demand.

    ``hosts`` restricts the pool to a subset of the world's machines
    (the JS-Shell's registered-node set); default is all of them.
    """

    POLICIES = ("available-compute", "min-load", "random")

    def __init__(
        self,
        world: SimWorld,
        hosts: Iterable[str] | None = None,
        policy: str = "available-compute",
        snapshot_fn: Callable[[str], Snapshot] | None = None,
        site_fn: Callable[[str], str | None] | None = None,
    ) -> None:
        if policy not in self.POLICIES:
            raise AllocationError(
                f"unknown policy {policy!r}; expected one of {self.POLICIES}"
            )
        self.world = world
        self.policy = policy
        self._hosts = set(hosts) if hosts is not None else set(world.machines)
        unknown = self._hosts - set(world.machines)
        if unknown:
            raise AllocationError(f"unknown hosts {sorted(unknown)}")
        #: allocation refcount per host (hosts may be shared across VAs)
        self.allocations: dict[str, int] = {}
        self._snapshot_fn = snapshot_fn
        #: physical site of a host (for site-confined shaped allocation);
        #: usually wired to ``NetworkAgentSystem.site_of``
        self._site_fn = site_fn
        self._rng = world.rng.stream("pool")

    # -- membership (JS-Shell drives this) --------------------------------

    def add_host(self, host: str) -> None:
        if host not in self.world.machines:
            raise AllocationError(f"unknown host {host!r}")
        self._hosts.add(host)

    def remove_host(self, host: str) -> None:
        self._hosts.discard(host)

    @property
    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    # -- monitoring view ---------------------------------------------------

    def snapshot(self, host: str) -> Snapshot:
        if self._snapshot_fn is not None:
            return self._snapshot_fn(host)
        machine = self.world.machine(host)
        return sample_all(machine, self.world.now(), self.world.topology)

    def alive_hosts(self) -> list[str]:
        return [
            h for h in sorted(self._hosts)
            if not self.world.machine(h).failed
        ]

    # -- allocation ----------------------------------------------------------

    def _rank(self, candidates: list[tuple[str, Snapshot]]) -> list[str]:
        # Hosts already handed out to this application's architectures are
        # expected to be busy soon, so they rank behind unallocated ones
        # regardless of what the (possibly not-yet-updated) monitor says.
        def refs(host: str) -> int:
            return self.allocations.get(host, 0)

        if self.policy == "available-compute":
            return [
                h for h, _ in sorted(
                    candidates,
                    key=lambda item: (
                        refs(item[0]),
                        -_available_compute(item[1]),
                        item[0],
                    ),
                )
            ]
        if self.policy == "min-load":
            return [
                h for h, _ in sorted(
                    candidates,
                    key=lambda item: (
                        refs(item[0]),
                        item[1][SysParam.CPU_LOAD],
                        item[0],
                    ),
                )
            ]
        names = [h for h, _ in candidates]
        self._rng.shuffle(names)
        return names

    def candidates(
        self,
        constraints: JSConstraints | None = None,
        exclude: Iterable[str] = (),
    ) -> list[str]:
        """Alive, non-excluded hosts satisfying constraints, best first."""
        excluded = set(exclude)
        scored: list[tuple[str, Snapshot]] = []
        for host in self.alive_hosts():
            if host in excluded:
                continue
            snap = self.snapshot(host)
            if constraints is None or constraints.holds(snap):
                scored.append((host, snap))
        return self._rank(scored)

    def acquire(
        self,
        count: int = 1,
        constraints: JSConstraints | None = None,
        exclude: Iterable[str] = (),
        name: str | None = None,
    ) -> list[str]:
        if name is not None:
            if name not in self._hosts:
                raise AllocationError(
                    f"node {name!r} is not registered with this pool"
                )
            if self.world.machine(name).failed:
                raise AllocationError(f"node {name!r} has failed")
            if constraints is not None and not constraints.holds(
                self.snapshot(name)
            ):
                raise AllocationError(
                    f"node {name!r} does not satisfy the constraints"
                )
            self.allocations[name] = self.allocations.get(name, 0) + 1
            return [name]
        ranked = self.candidates(constraints, exclude)
        if len(ranked) < count:
            raise AllocationError(
                f"need {count} node(s) but only {len(ranked)} satisfy the "
                f"constraints (pool={len(self._hosts)} hosts)"
            )
        chosen = ranked[:count]
        for host in chosen:
            self.allocations[host] = self.allocations.get(host, 0) + 1
        return chosen

    def release(self, host: str) -> None:
        refs = self.allocations.get(host, 0)
        if refs <= 0:
            raise AllocationError(f"release of unallocated host {host!r}")
        if refs == 1:
            del self.allocations[host]
        else:
            self.allocations[host] = refs - 1

    # -- locality-aware bulk allocation -------------------------------------
    #
    # A virtual cluster "usually corresponds to a local PC/workstation
    # cluster" (Section 3): when several nodes are requested together we
    # try to confine each requested cluster to one physical network
    # segment, and each requested site to one physical site, falling back
    # to best-ranked mixed hosts when no single segment/site can satisfy
    # the request.

    def _segment_name(self, host: str) -> str:
        return self.world.topology.segment_of(host).name

    def _pick_confined(
        self,
        ranked: list[str],
        count: int,
        taken: set[str],
        group_of: Callable[[str], str | None],
    ) -> list[str]:
        """Best ``count`` hosts confined to one group, else best mixed."""
        free = [h for h in ranked if h not in taken]
        if len(free) < count:
            raise AllocationError(
                f"need {count} node(s) but only {len(free)} remain"
            )
        rank_index = {h: i for i, h in enumerate(ranked)}
        by_group: dict[str, list[str]] = {}
        for host in free:
            group = group_of(host)
            if group is not None:
                by_group.setdefault(group, []).append(host)
        best: tuple[float, list[str]] | None = None
        for hosts in by_group.values():
            if len(hosts) < count:
                continue
            chosen = hosts[:count]
            score = sum(rank_index[h] for h in chosen)
            if best is None or score < best[0]:
                best = (score, chosen)
        return best[1] if best is not None else free[:count]

    def acquire_grouped(
        self,
        counts: list[int],
        constraints: JSConstraints | None = None,
        exclude: Iterable[str] = (),
    ) -> list[list[str]]:
        """Acquire ``len(counts)`` disjoint groups, each preferring one
        physical network segment."""
        ranked = self.candidates(constraints, exclude)
        if sum(counts) > len(ranked):
            raise AllocationError(
                f"need {sum(counts)} node(s) but only {len(ranked)} "
                "satisfy the constraints"
            )
        taken: set[str] = set()
        groups: list[list[str]] = []
        for count in counts:
            chosen = self._pick_confined(
                ranked, count, taken, self._segment_name
            )
            taken.update(chosen)
            groups.append(chosen)
        for host in taken:
            self.allocations[host] = self.allocations.get(host, 0) + 1
        return groups

    def acquire_shaped(
        self,
        shape: list[list[int]],
        constraints: JSConstraints | None = None,
    ) -> list[list[list[str]]]:
        """Acquire a domain shape ``[[c1, c2], [c3], ...]``: each outer
        entry (a requested virtual site) prefers one physical site; each
        inner count (a virtual cluster) prefers one segment."""
        ranked = self.candidates(constraints)
        total = sum(sum(site) for site in shape)
        if total > len(ranked):
            raise AllocationError(
                f"need {total} node(s) but only {len(ranked)} satisfy "
                "the constraints"
            )
        taken: set[str] = set()
        sites: list[list[list[str]]] = []
        for counts in shape:
            site_need = sum(counts)
            site_fn = self._site_fn if self._site_fn is not None else (
                self._segment_name
            )
            site_hosts = self._pick_confined(
                ranked, site_need, taken, site_fn
            )
            # Within the chosen hosts, confine each cluster to a segment.
            rank_index = {h: i for i, h in enumerate(ranked)}
            pool_hosts = sorted(site_hosts, key=rank_index.__getitem__)
            site_taken: set[str] = set()
            clusters: list[list[str]] = []
            for count in counts:
                chosen = self._pick_confined(
                    pool_hosts, count, site_taken, self._segment_name
                )
                site_taken.update(chosen)
                clusters.append(chosen)
            taken.update(site_taken)
            sites.append(clusters)
        for host in taken:
            self.allocations[host] = self.allocations.get(host, 0) + 1
        return sites
