"""``Domain``: the top of a virtual architecture (paper Section 4.2).

``Domain([[1, 3, 5], [6, 4]])`` allocates two sites — the first with
clusters of 1, 3 and 5 nodes, the second with clusters of 6 and 4 —
matching the paper's multidimensional-array constructor.  The operations
are the shared :class:`~repro.varch.component.Aggregate`'s; the
multi-index ``get_node``/``free_node``/``free_cluster`` forward to the
site.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.constraints import JSConstraints
from repro.errors import ArchitectureError
from repro.varch.component import Aggregate
from repro.varch.node import Node
from repro.varch.site import Site


class Domain(Aggregate):
    _kind = "domain"
    _member_type = Site

    def __init__(
        self,
        nodes_per_site: Sequence[Sequence[int]] | None = None,
        constraints: JSConstraints | None = None,
        pool: Any = None,
    ) -> None:
        super().__init__(pool)
        if nodes_per_site is not None:
            shape = [list(counts) for counts in nodes_per_site]
            if not shape or any(not counts for counts in shape):
                raise ArchitectureError(f"bad domain shape {shape}")
            if any(count < 1 for counts in shape for count in counts):
                raise ArchitectureError("each cluster needs >= 1 node")
            # Shaped acquire: virtual sites prefer one physical site,
            # virtual clusters one physical segment.
            self._take(
                self._pool.acquire_shaped(shape, constraints=constraints)
            )

    def nr_clusters(self) -> int:
        return sum(site.nr_clusters() for site in self._list())

    def get_node(self, site_id: int, cluster_id: int, node_id: int) -> Node:
        return self.get_site(site_id).get_node(cluster_id, node_id)

    def free_node(self, site_id: int, cluster_id: int, node_id: int) -> None:
        self.get_site(site_id).free_node(cluster_id, node_id)

    def free_cluster(self, site_id: int, cluster_id: int) -> None:
        self.get_site(site_id).free_cluster(cluster_id)

    sites = Aggregate._list
    nr_sites = Aggregate._count
    get_site = Aggregate._get
    add_site = Aggregate._add
    free_site = Aggregate._free_member
    free_domain = Aggregate._free

    # Paper-style aliases.
    nrSites = nr_sites
    nrClusters = nr_clusters
    nrNodes = Aggregate.nr_nodes
    getSite = get_site
    getNode = get_node
    addSite = add_site
    freeNode = free_node
    freeCluster = free_cluster
    freeSite = free_site
    freeDomain = free_domain
